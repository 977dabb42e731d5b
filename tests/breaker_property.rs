//! Property test of the gateway circuit breaker against an independent
//! reference model.
//!
//! [`CircuitBreaker`] is the one supervision state machine whose
//! decisions gate live traffic, so it gets the same treatment the VLIW
//! packer and the analyzer get: a second, deliberately different
//! implementation of the same contract (the reference model below
//! recomputes its error rate by scanning a plain `Vec` instead of
//! maintaining incremental counts), driven with random operation
//! sequences. Three properties:
//!
//! 1. **no panics** — any interleaving of admits, outcome records,
//!    cancels, and stale noise is safe;
//! 2. **model equivalence** — every admission decision and every
//!    observable state transition matches the reference model exactly;
//! 3. **determinism** — replaying the same sequence on a fresh breaker
//!    reproduces the identical decision trace (the property that makes
//!    a gateway scenario replay exactly from its script).
//!
//! The breaker is pure state: a sequence of calls is all it needs.

use gcd2_repro::compiler::{Admission, BreakerConfig, BreakerState, CircuitBreaker};
use proptest::prelude::*;

/// The independent model: same contract as [`CircuitBreaker`], naive
/// implementation — the window is a `Vec` truncated from the front, the
/// error rate is recomputed by scanning it, and the three states are
/// modeled with explicit probe bookkeeping.
struct ModelBreaker {
    cfg: BreakerConfig,
    state: BreakerState,
    window: Vec<bool>,
    opened_at: u64,
    probes_out: usize,
    probe_ok: usize,
}

impl ModelBreaker {
    fn new(cfg: BreakerConfig) -> ModelBreaker {
        ModelBreaker {
            cfg: BreakerConfig {
                window: cfg.window.max(1),
                min_samples: cfg.min_samples.max(1),
                threshold_pct: cfg.threshold_pct.min(100),
                cooldown_us: cfg.cooldown_us,
                probes: cfg.probes.max(1),
            },
            state: BreakerState::Closed,
            window: Vec::new(),
            opened_at: 0,
            probes_out: 0,
            probe_ok: 0,
        }
    }

    fn admit(&mut self, now: u64) -> Admission {
        if self.state == BreakerState::Open {
            if now.saturating_sub(self.opened_at) >= self.cfg.cooldown_us {
                self.state = BreakerState::HalfOpen;
                self.probes_out = 0;
                self.probe_ok = 0;
            } else {
                return Admission::Reject {
                    retry_after_us: self.cfg.cooldown_us - now.saturating_sub(self.opened_at),
                };
            }
        }
        if self.state == BreakerState::Closed {
            return Admission::Admit;
        }
        if self.probes_out < self.cfg.probes {
            self.probes_out += 1;
            Admission::Probe
        } else {
            Admission::Reject { retry_after_us: 0 }
        }
    }

    fn record(&mut self, error: bool, probe: bool, now: u64) {
        match self.state {
            BreakerState::Closed => {
                self.window.push(error);
                while self.window.len() > self.cfg.window {
                    self.window.remove(0);
                }
                let errors = self.window.iter().filter(|&&e| e).count();
                if self.window.len() >= self.cfg.min_samples
                    && errors * 100 >= usize::from(self.cfg.threshold_pct) * self.window.len()
                {
                    self.trip(now);
                }
            }
            BreakerState::HalfOpen if probe => {
                self.probes_out = self.probes_out.saturating_sub(1);
                if error {
                    self.trip(now);
                } else {
                    self.probe_ok += 1;
                    if self.probe_ok >= self.cfg.probes {
                        self.state = BreakerState::Closed;
                        self.window.clear();
                        self.probes_out = 0;
                        self.probe_ok = 0;
                    }
                }
            }
            _ => {}
        }
    }

    fn cancel(&mut self, probe: bool) {
        if probe && self.state == BreakerState::HalfOpen {
            self.probes_out = self.probes_out.saturating_sub(1);
        }
    }

    fn trip(&mut self, now: u64) {
        self.state = BreakerState::Open;
        self.opened_at = now;
        self.window.clear();
        self.probes_out = 0;
        self.probe_ok = 0;
    }
}

/// One step of the driver: advance logical time, then do something.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Admit a request; successful admissions join the pending queue.
    Admit,
    /// Resolve the oldest pending admission with this outcome.
    Record { error: bool },
    /// Cancel the oldest pending admission (shed/abandoned/orphaned).
    Cancel,
    /// A stale outcome for a request admitted before a trip: recorded
    /// with `probe = false` regardless of breaker state.
    StaleNoise { error: bool },
}

fn arb_cfg() -> impl Strategy<Value = BreakerConfig> {
    (1usize..8, 1usize..8, 0u8..=100, 1u64..2_000, 1usize..4).prop_map(
        |(window, min_samples, threshold_pct, cooldown_us, probes)| BreakerConfig {
            window,
            min_samples,
            threshold_pct,
            cooldown_us,
            probes,
        },
    )
}

fn arb_ops() -> impl Strategy<Value = Vec<(u64, Op)>> {
    proptest::collection::vec(
        (0u64..700, 0u8..10, any::<bool>()).prop_map(|(dt, kind, error)| {
            let op = match kind {
                0..=4 => Op::Admit,
                5 | 6 => Op::Record { error },
                7 => Op::Record { error: true },
                8 => Op::Cancel,
                _ => Op::StaleNoise { error },
            };
            (dt, op)
        }),
        1..120,
    )
}

/// Drives one breaker through the op sequence, returning the full
/// observable trace: the admission decision or `None` per step, plus
/// the state after every step.
fn drive(cfg: BreakerConfig, ops: &[(u64, Op)]) -> Vec<(Option<Admission>, BreakerState)> {
    let mut b = CircuitBreaker::new(cfg);
    let mut pending: Vec<bool> = Vec::new();
    let mut now = 0u64;
    let mut trace = Vec::with_capacity(ops.len());
    for &(dt, op) in ops {
        now += dt;
        let decision = match op {
            Op::Admit => {
                let a = b.admit(now);
                match a {
                    Admission::Admit => pending.push(false),
                    Admission::Probe => pending.push(true),
                    Admission::Reject { .. } => {}
                }
                Some(a)
            }
            Op::Record { error } => {
                if !pending.is_empty() {
                    let probe = pending.remove(0);
                    b.record(error, probe, now);
                }
                None
            }
            Op::Cancel => {
                if !pending.is_empty() {
                    let probe = pending.remove(0);
                    b.cancel(probe);
                }
                None
            }
            Op::StaleNoise { error } => {
                b.record(error, false, now);
                None
            }
        };
        trace.push((decision, b.state()));
    }
    trace
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The real breaker and the reference model make identical
    /// decisions on any op sequence — and neither ever panics.
    #[test]
    fn breaker_matches_reference_model(cfg in arb_cfg(), ops in arb_ops()) {
        let mut real = CircuitBreaker::new(cfg);
        let mut model = ModelBreaker::new(cfg);
        let mut pending: Vec<bool> = Vec::new();
        let mut now = 0u64;
        for (step, &(dt, op)) in ops.iter().enumerate() {
            now += dt;
            match op {
                Op::Admit => {
                    let got = real.admit(now);
                    let want = model.admit(now);
                    prop_assert_eq!(got, want, "admit diverged at step {}", step);
                    match got {
                        Admission::Admit => pending.push(false),
                        Admission::Probe => pending.push(true),
                        Admission::Reject { .. } => {}
                    }
                }
                Op::Record { error } => {
                    if !pending.is_empty() {
                        let probe = pending.remove(0);
                        real.record(error, probe, now);
                        model.record(error, probe, now);
                    }
                }
                Op::Cancel => {
                    if !pending.is_empty() {
                        let probe = pending.remove(0);
                        real.cancel(probe);
                        model.cancel(probe);
                    }
                }
                Op::StaleNoise { error } => {
                    real.record(error, false, now);
                    model.record(error, false, now);
                }
            }
            prop_assert_eq!(
                real.state(),
                model.state,
                "state diverged at step {} ({:?})",
                step,
                op
            );
        }
    }

    /// Replaying a sequence on a fresh breaker reproduces the identical
    /// observable trace: the machine is a pure function of its calls.
    #[test]
    fn breaker_is_deterministic(cfg in arb_cfg(), ops in arb_ops()) {
        prop_assert_eq!(drive(cfg, &ops), drive(cfg, &ops));
    }

    /// A breaker that trips always recovers: after the cooldown, probes
    /// are admitted, and enough successful probes close it again.
    /// (`threshold_pct == 0` is the pathological always-trip config and
    /// is excluded: it can never stay Closed by design.)
    #[test]
    fn opened_breaker_recovers_through_probes(cfg in arb_cfg(), ops in arb_ops()) {
        let cfg = BreakerConfig {
            threshold_pct: cfg.threshold_pct.max(1),
            ..cfg
        };
        let mut b = CircuitBreaker::new(cfg);
        let mut pending: Vec<bool> = Vec::new();
        let mut now = 0u64;
        for &(dt, op) in &ops {
            now += dt;
            match op {
                Op::Admit => match b.admit(now) {
                    Admission::Admit => pending.push(false),
                    Admission::Probe => pending.push(true),
                    Admission::Reject { .. } => {}
                },
                Op::Record { error } => {
                    if !pending.is_empty() {
                        let probe = pending.remove(0);
                        b.record(error, probe, now);
                    }
                }
                Op::Cancel => {
                    if !pending.is_empty() {
                        let probe = pending.remove(0);
                        b.cancel(probe);
                    }
                }
                Op::StaleNoise { error } => b.record(error, false, now),
            }
        }
        // Resolve the storm's leftovers first: an outstanding probe
        // holds a HalfOpen slot until recorded or cancelled.
        for probe in pending.drain(..) {
            b.cancel(probe);
        }
        // Whatever state the storm left it in, drive it home: wait out
        // any cooldown, then feed successes. One more trip is possible
        // on the way (storm-era errors still in the Closed window meet
        // `min_samples` as successes land), so the loop is sized past
        // window-fill + cooldown + a full probe episode.
        for _ in 0..(cfg.window + cfg.min_samples + cfg.probes.max(1) * 3 + 4) {
            now += cfg.cooldown_us.max(1);
            match b.admit(now) {
                Admission::Admit => {
                    b.record(false, false, now);
                }
                Admission::Probe => {
                    b.record(false, true, now);
                }
                Admission::Reject { .. } => {}
            }
        }
        prop_assert_eq!(b.state(), BreakerState::Closed);
    }
}
