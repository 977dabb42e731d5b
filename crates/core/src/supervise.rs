//! Self-healing supervision primitives for the serving gateway.
//!
//! [`crate::InferServer`] composes two recovery mechanisms (hang
//! takeover and a circuit breaker); this module holds the pieces that
//! are **pure state machines or plain data** so they can be tested in
//! isolation — most importantly the
//! [`CircuitBreaker`], which is deterministic given its call sequence
//! (it never reads a clock; callers pass logical microsecond
//! timestamps), and the [`HealthEvent`] record the gateway's
//! [`crate::serve::GatewayHealth`] snapshot surfaces to operators.
//!
//! Determinism matters here for the same reason it does everywhere else
//! in this repo: a gateway scenario replays exactly from its script,
//! and the breaker's transitions are a pure function of the
//! admit/record sequence.

use std::collections::VecDeque;
use std::fmt;
use std::time::Duration;

use crate::error::InferError;

/// Supervision knobs of one gateway ([`crate::GatewayConfig::supervisor`]).
///
/// The defaults are deliberately conservative: the gateway only wedges
/// a worker stuck for 30 s, and the breaker needs a sustained error rate
/// over a real sample count.
#[derive(Debug, Clone, Copy)]
pub struct SupervisorConfig {
    /// A batch executing longer than this is declared hung: its
    /// tickets are answered with [`InferError::Hung`], the worker is
    /// marked wedged, and a replacement is spawned.
    pub hang_deadline: Duration,
    /// Sliding outcome-window size of each model's circuit breaker.
    pub breaker_window: usize,
    /// Minimum outcomes in the window before the breaker may trip.
    pub breaker_min_samples: usize,
    /// Trip when `errors * 100 >= threshold_pct * samples` (integer
    /// arithmetic: the state machine stays exactly deterministic).
    pub breaker_threshold_pct: u8,
    /// How long an Open breaker sheds before probing HalfOpen.
    pub breaker_cooldown: Duration,
    /// HalfOpen probe budget: at most this many in-flight probes, and
    /// this many consecutive probe successes close the breaker.
    pub breaker_probes: usize,
    /// How many [`HealthEvent`]s the gateway's ring buffer retains.
    pub health_events: usize,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            hang_deadline: Duration::from_secs(30),
            breaker_window: 64,
            breaker_min_samples: 16,
            breaker_threshold_pct: 60,
            breaker_cooldown: Duration::from_millis(250),
            breaker_probes: 2,
            health_events: 64,
        }
    }
}

impl SupervisorConfig {
    /// The breaker configuration this supervisor hands each model.
    pub fn breaker_config(&self) -> BreakerConfig {
        BreakerConfig {
            window: self.breaker_window,
            min_samples: self.breaker_min_samples,
            threshold_pct: self.breaker_threshold_pct,
            cooldown_us: u64::try_from(self.breaker_cooldown.as_micros()).unwrap_or(u64::MAX),
            probes: self.breaker_probes,
        }
    }
}

/// Circuit-breaker tuning, in logical microseconds (the breaker never
/// reads a clock; see [`CircuitBreaker`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Sliding outcome-window size.
    pub window: usize,
    /// Minimum outcomes before the breaker may trip.
    pub min_samples: usize,
    /// Trip when `errors * 100 >= threshold_pct * samples`.
    pub threshold_pct: u8,
    /// Open → HalfOpen after this many logical microseconds.
    pub cooldown_us: u64,
    /// HalfOpen probe budget and close threshold.
    pub probes: usize,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        SupervisorConfig::default().breaker_config()
    }
}

/// The breaker's three states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BreakerState {
    /// Healthy: every request is admitted, outcomes feed the window.
    #[default]
    Closed,
    /// Tripped: requests are shed with [`InferError::BreakerOpen`]
    /// until the cooldown elapses.
    Open,
    /// Probing: a bounded number of requests are admitted; consecutive
    /// successes close the breaker, any probe failure re-opens it.
    HalfOpen,
}

impl fmt::Display for BreakerState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        })
    }
}

/// What [`CircuitBreaker::admit`] decided for one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Admitted normally (breaker Closed).
    Admit,
    /// Admitted as a HalfOpen probe: the caller must report the outcome
    /// with `probe = true` (or [`CircuitBreaker::cancel`] it).
    Probe,
    /// Shed: the breaker is Open (or its probe budget is saturated).
    Reject {
        /// Logical microseconds until HalfOpen probing begins (0 when
        /// already HalfOpen but the probe budget is in use).
        retry_after_us: u64,
    },
}

/// A deterministic Closed→Open→HalfOpen circuit breaker over a sliding
/// error-rate window.
///
/// The breaker never reads a clock: callers pass a **logical,
/// monotonically non-decreasing microsecond timestamp** to every call,
/// so the full state machine is a pure function of its call sequence —
/// the property the `breaker_property` proptest suite checks against an
/// independent reference model, and what makes gateway scenarios replay
/// exactly.
///
/// Concurrency is the *caller's* concern (the gateway wraps each
/// model's breaker in a `Mutex`); results that arrive for requests
/// admitted before a trip (`probe = false` while not Closed) are
/// deliberately ignored so stale outcomes can neither re-trip nor close
/// the breaker.
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    cfg: BreakerConfig,
    state: BreakerState,
    /// Recent outcomes, `true` = error; bounded by `cfg.window`.
    window: VecDeque<bool>,
    errors: usize,
    opened_at_us: u64,
    probes_inflight: usize,
    probe_successes: usize,
}

impl CircuitBreaker {
    /// A Closed breaker with `cfg` (normalized: window, min-samples and
    /// probes are clamped to at least 1, the threshold to at most
    /// 100%).
    pub fn new(cfg: BreakerConfig) -> CircuitBreaker {
        CircuitBreaker {
            cfg: BreakerConfig {
                window: cfg.window.max(1),
                min_samples: cfg.min_samples.max(1),
                threshold_pct: cfg.threshold_pct.min(100),
                cooldown_us: cfg.cooldown_us,
                probes: cfg.probes.max(1),
            },
            state: BreakerState::Closed,
            window: VecDeque::new(),
            errors: 0,
            opened_at_us: 0,
            probes_inflight: 0,
            probe_successes: 0,
        }
    }

    /// The current state. Pure read: an elapsed cooldown only becomes
    /// HalfOpen on the next [`CircuitBreaker::admit`] (lazy transition,
    /// so the machine stays a function of the call sequence alone).
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Decides one request at logical time `now_us`.
    pub fn admit(&mut self, now_us: u64) -> Admission {
        if self.state == BreakerState::Open {
            let elapsed = now_us.saturating_sub(self.opened_at_us);
            if elapsed >= self.cfg.cooldown_us {
                self.state = BreakerState::HalfOpen;
                self.probes_inflight = 0;
                self.probe_successes = 0;
            } else {
                return Admission::Reject {
                    retry_after_us: self.cfg.cooldown_us - elapsed,
                };
            }
        }
        match self.state {
            BreakerState::Closed => Admission::Admit,
            BreakerState::HalfOpen => {
                if self.probes_inflight < self.cfg.probes {
                    self.probes_inflight += 1;
                    Admission::Probe
                } else {
                    Admission::Reject { retry_after_us: 0 }
                }
            }
            // Unreachable: Open either transitioned or returned above.
            BreakerState::Open => Admission::Reject {
                retry_after_us: self.cfg.cooldown_us,
            },
        }
    }

    /// Reports the outcome of an admitted request (`error = true` for a
    /// server-attributed failure, see [`counts_as_fault`]); `probe`
    /// must echo the [`Admission`] the request got. Outcomes for
    /// requests admitted before a trip (`probe = false` while not
    /// Closed) are ignored.
    pub fn record(&mut self, error: bool, probe: bool, now_us: u64) {
        match self.state {
            BreakerState::Closed => {
                self.window.push_back(error);
                if error {
                    self.errors += 1;
                }
                while self.window.len() > self.cfg.window {
                    if self.window.pop_front() == Some(true) {
                        self.errors = self.errors.saturating_sub(1);
                    }
                }
                let samples = self.window.len();
                if samples >= self.cfg.min_samples
                    && self.errors * 100 >= usize::from(self.cfg.threshold_pct) * samples
                {
                    self.trip(now_us);
                }
            }
            BreakerState::HalfOpen if probe => {
                self.probes_inflight = self.probes_inflight.saturating_sub(1);
                if error {
                    self.trip(now_us);
                } else {
                    self.probe_successes += 1;
                    if self.probe_successes >= self.cfg.probes {
                        self.state = BreakerState::Closed;
                        self.window.clear();
                        self.errors = 0;
                        self.probes_inflight = 0;
                        self.probe_successes = 0;
                    }
                }
            }
            // Stale outcomes (admitted pre-trip) and Open-state noise.
            BreakerState::HalfOpen | BreakerState::Open => {}
        }
    }

    /// Returns an admitted-but-never-executed request's slot (the
    /// gateway calls this when a queued request is shed, abandoned, or
    /// orphaned by unregister): a probe admission frees its probe slot,
    /// a normal admission is a no-op. Without this, a shed probe would
    /// saturate the HalfOpen budget forever.
    pub fn cancel(&mut self, probe: bool) {
        if probe && self.state == BreakerState::HalfOpen {
            self.probes_inflight = self.probes_inflight.saturating_sub(1);
        }
    }

    fn trip(&mut self, now_us: u64) {
        self.state = BreakerState::Open;
        self.opened_at_us = now_us;
        self.window.clear();
        self.errors = 0;
        self.probes_inflight = 0;
        self.probe_successes = 0;
    }
}

/// Whether an execution outcome counts against the model's breaker:
/// server-attributed failures do, client mistakes and
/// load management don't. A shed or queue-full request says nothing
/// about the model's health; a panic inside the runtime does.
pub fn counts_as_fault(e: &InferError) -> bool {
    match e {
        InferError::Internal { .. }
        | InferError::Dispatch { .. }
        | InferError::IntegrityViolation { .. }
        | InferError::ArenaMismatch { .. }
        | InferError::QuantOverflow { .. }
        | InferError::Unsound { .. }
        | InferError::DeadlineExceeded { .. }
        | InferError::Hung { .. } => true,
        InferError::InputShape { .. }
        | InferError::QueueFull { .. }
        | InferError::Shed { .. }
        | InferError::Draining
        | InferError::UnknownModel { .. }
        | InferError::ServerStopped
        | InferError::BreakerOpen { .. }
        | InferError::Artifact(_) => false,
    }
}

/// One supervision decision, retained in the gateway's bounded event
/// ring ([`crate::serve::GatewayHealth::events`]) so operators can see
/// *why* the gateway healed itself, not just that counters moved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HealthEvent {
    /// A worker's batch overran the hang deadline: the worker is wedged
    /// and its tickets answered.
    WorkerHung {
        /// The wedged worker's id.
        worker: usize,
        /// The model whose batch hung.
        model: String,
        /// Tickets answered with [`InferError::Hung`].
        in_flight: usize,
    },
    /// A replacement worker was spawned for a wedged one.
    WorkerReplaced {
        /// The wedged worker's id.
        wedged: usize,
        /// The replacement worker's id.
        replacement: usize,
    },
    /// A model's breaker tripped Open.
    BreakerOpened {
        /// The model.
        model: String,
    },
    /// A model's breaker started HalfOpen probing.
    BreakerHalfOpen {
        /// The model.
        model: String,
    },
    /// A model's breaker closed after successful probes.
    BreakerClosed {
        /// The model.
        model: String,
    },
}

impl fmt::Display for HealthEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HealthEvent::WorkerHung {
                worker,
                model,
                in_flight,
            } => write!(
                f,
                "worker {worker} hung on {model:?} ({in_flight} tickets answered)"
            ),
            HealthEvent::WorkerReplaced {
                wedged,
                replacement,
            } => write!(f, "worker {wedged} replaced by worker {replacement}"),
            HealthEvent::BreakerOpened { model } => write!(f, "breaker opened for {model:?}"),
            HealthEvent::BreakerHalfOpen { model } => {
                write!(f, "breaker half-open for {model:?}")
            }
            HealthEvent::BreakerClosed { model } => write!(f, "breaker closed for {model:?}"),
        }
    }
}

/// A bounded, sequence-numbered ring of [`HealthEvent`]s. Sequence
/// numbers are global and monotone, so an operator polling snapshots
/// can detect events that scrolled out of the ring between polls.
#[derive(Debug, Clone)]
pub struct HealthLog {
    cap: usize,
    seq: u64,
    events: VecDeque<(u64, HealthEvent)>,
}

impl HealthLog {
    /// An empty log retaining the last `cap` events (min 1).
    pub fn new(cap: usize) -> HealthLog {
        HealthLog {
            cap: cap.max(1),
            seq: 0,
            events: VecDeque::new(),
        }
    }

    /// Appends `event`, evicting the oldest beyond capacity; returns
    /// its sequence number.
    pub fn record(&mut self, event: HealthEvent) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        self.events.push_back((seq, event));
        while self.events.len() > self.cap {
            self.events.pop_front();
        }
        seq
    }

    /// Total events ever recorded (including evicted ones).
    pub fn recorded(&self) -> u64 {
        self.seq
    }

    /// The retained `(seq, event)` pairs, oldest first.
    pub fn snapshot(&self) -> Vec<(u64, HealthEvent)> {
        self.events.iter().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> BreakerConfig {
        BreakerConfig {
            window: 4,
            min_samples: 2,
            threshold_pct: 50,
            cooldown_us: 1_000,
            probes: 2,
        }
    }

    #[test]
    fn breaker_trips_sheds_probes_and_recovers() {
        let mut b = CircuitBreaker::new(cfg());
        assert_eq!(b.state(), BreakerState::Closed);
        // Two errors at 100% rate with min_samples=2 trip it.
        assert_eq!(b.admit(0), Admission::Admit);
        b.record(true, false, 10);
        assert_eq!(b.state(), BreakerState::Closed, "below min samples");
        assert_eq!(b.admit(20), Admission::Admit);
        b.record(true, false, 30);
        assert_eq!(b.state(), BreakerState::Open);
        // Open sheds with the remaining cooldown.
        assert_eq!(
            b.admit(130),
            Admission::Reject {
                retry_after_us: 900
            }
        );
        // Cooldown elapsed: HalfOpen admits `probes` probes, then sheds.
        assert_eq!(b.admit(1_030), Admission::Probe);
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert_eq!(b.admit(1_031), Admission::Probe);
        assert_eq!(b.admit(1_032), Admission::Reject { retry_after_us: 0 });
        // Two probe successes close it.
        b.record(false, true, 1_100);
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.record(false, true, 1_200);
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn failed_probe_reopens_and_stale_outcomes_are_ignored() {
        let mut b = CircuitBreaker::new(cfg());
        for now in [0, 1] {
            assert_eq!(b.admit(now), Admission::Admit);
            b.record(true, false, now + 2);
        }
        assert_eq!(b.state(), BreakerState::Open);
        // Stale non-probe outcomes (admitted pre-trip) change nothing.
        b.record(false, false, 500);
        b.record(true, false, 600);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.admit(1_003), Admission::Probe);
        b.record(true, true, 1_050);
        assert_eq!(b.state(), BreakerState::Open, "failed probe re-opens");
        // The re-open restarted the cooldown from the probe failure.
        assert!(matches!(b.admit(1_100), Admission::Reject { .. }));
        assert_eq!(b.admit(2_050), Admission::Probe);
    }

    #[test]
    fn cancelled_probe_frees_its_slot() {
        let mut b = CircuitBreaker::new(cfg());
        for now in [0, 1] {
            assert_eq!(b.admit(now), Admission::Admit);
            b.record(true, false, now + 2);
        }
        assert_eq!(b.admit(1_003), Admission::Probe);
        assert_eq!(b.admit(1_004), Admission::Probe);
        assert_eq!(b.admit(1_005), Admission::Reject { retry_after_us: 0 });
        b.cancel(true);
        assert_eq!(b.admit(1_006), Admission::Probe, "cancel freed a slot");
        // Cancelling a non-probe admission is a no-op.
        b.cancel(false);
        assert_eq!(b.admit(1_007), Admission::Reject { retry_after_us: 0 });
    }

    #[test]
    fn sliding_window_forgets_old_errors() {
        let mut b = CircuitBreaker::new(BreakerConfig {
            window: 4,
            min_samples: 4,
            threshold_pct: 75,
            cooldown_us: 1_000,
            probes: 1,
        });
        // err, err, ok, ok → 50% < 75%: stays Closed.
        for &e in &[true, true, false, false] {
            assert_eq!(b.admit(0), Admission::Admit);
            b.record(e, false, 0);
        }
        assert_eq!(b.state(), BreakerState::Closed);
        // Two more oks push both errors out of the window; two fresh
        // errors then sit at 50% again — still Closed.
        for &e in &[false, false, true, true] {
            assert_eq!(b.admit(0), Admission::Admit);
            b.record(e, false, 0);
        }
        assert_eq!(b.state(), BreakerState::Closed);
        // A third error in the window (75%) trips it.
        b.record(true, false, 0);
        assert_eq!(b.state(), BreakerState::Open);
    }

    #[test]
    fn health_log_is_bounded_with_monotone_seqs() {
        let mut log = HealthLog::new(3);
        for i in 0..5usize {
            log.record(HealthEvent::BreakerOpened {
                model: format!("m{i}"),
            });
        }
        let snap = log.snapshot();
        assert_eq!(snap.len(), 3);
        assert_eq!(log.recorded(), 5);
        let seqs: Vec<u64> = snap.iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, vec![2, 3, 4]);
    }

    #[test]
    fn fault_taxonomy_splits_server_from_client() {
        assert!(counts_as_fault(&InferError::Internal {
            message: "boom".into()
        }));
        assert!(counts_as_fault(&InferError::Hung {
            model: "m".into(),
            elapsed: Duration::from_millis(2),
            deadline: Duration::from_millis(1),
        }));
        assert!(!counts_as_fault(&InferError::InputShape {
            expected: 16,
            got: 3
        }));
        assert!(!counts_as_fault(&InferError::QueueFull { capacity: 4 }));
    }
}
