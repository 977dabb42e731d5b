//! Compile budgets and the degradation ladder.
//!
//! Global selection is the expensive phase of the pipeline (the paper
//! measures >80 hours for exhaustive search at 25 operators, Figure 10b).
//! A [`CompileBudget`] bounds it two ways:
//!
//! * **`max_states`** — a deterministic cap on the number of DFS states
//!   the partition solver may expand, a count and not a clock.
//!   Exceeding it is the *deterministic* degradation
//!   trigger: the same graph and budget always degrade at the same
//!   point, so budgeted compilation stays bit-reproducible.
//! * **`deadline`** — a wall-clock backstop checked between ladder rungs
//!   and partitions. It exists for operational safety (a stuck host, an
//!   injected delay) and is inherently nondeterministic; determinism
//!   tests use `max_states` only.
//!
//! When a rung of the ladder cannot finish inside the budget the solver
//! falls to the next rung — `GCD2(configured)` → `GCD2(13)` → chain DP →
//! greedy (local-optimal) — recording a [`DegradeEvent`] per fall. The
//! greedy floor always succeeds, so budgeted selection is total.

use std::fmt;
use std::time::{Duration, Instant};

/// Resource bounds for one compilation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompileBudget {
    /// Wall-clock limit for global selection. `None` means unlimited.
    /// Checked between rungs and between partitions (a coarse backstop,
    /// not a preemption point).
    pub deadline: Option<Duration>,
    /// Maximum DFS states the partition solver may expand per rung,
    /// summed over all partitions. The deterministic degradation
    /// trigger.
    pub max_states: u64,
}

impl CompileBudget {
    /// Effectively unbounded state cap: far above what any catalog model
    /// expands, while still guarding against pathological graphs.
    pub const DEFAULT_MAX_STATES: u64 = 1 << 33;

    /// An unlimited budget (no deadline, default state cap).
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Budget with a wall-clock deadline.
    pub fn with_deadline(deadline: Duration) -> Self {
        CompileBudget {
            deadline: Some(deadline),
            ..Self::default()
        }
    }

    /// Budget with an explicit DFS state cap.
    pub fn with_max_states(max_states: u64) -> Self {
        CompileBudget {
            max_states,
            ..Self::default()
        }
    }

    /// Sets the deadline, keeping other limits.
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the state cap, keeping other limits.
    pub fn max_states(mut self, max_states: u64) -> Self {
        self.max_states = max_states;
        self
    }
}

impl Default for CompileBudget {
    fn default() -> Self {
        CompileBudget {
            deadline: None,
            max_states: Self::DEFAULT_MAX_STATES,
        }
    }
}

/// One rung of the degradation ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rung {
    /// The partitioning heuristic at a given partition size.
    Gcd2 {
        /// Partition size bound (`GCD2(max_ops)`).
        max_ops: usize,
    },
    /// Exact DP over maximal single-predecessor chains, greedy elsewhere.
    ChainDp,
    /// The local-optimal baseline; always succeeds.
    Greedy,
}

impl fmt::Display for Rung {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rung::Gcd2 { max_ops } => write!(f, "GCD2({max_ops})"),
            Rung::ChainDp => write!(f, "chain-DP"),
            Rung::Greedy => write!(f, "greedy"),
        }
    }
}

/// Why a rung was abandoned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradeReason {
    /// The DFS state cap was hit (deterministic trigger).
    StateCap {
        /// States expanded when the rung was abandoned.
        used: u64,
        /// The budget's cap.
        cap: u64,
    },
    /// The wall-clock deadline passed (nondeterministic backstop).
    Deadline {
        /// Elapsed milliseconds when the rung was abandoned.
        elapsed_ms: u64,
    },
}

/// One fall down the degradation ladder, recorded in the compile report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DegradeEvent {
    /// The rung that was abandoned.
    pub from: Rung,
    /// The rung tried next.
    pub to: Rung,
    /// Why the fall happened.
    pub reason: DegradeReason,
}

impl fmt::Display for DegradeEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.reason {
            DegradeReason::StateCap { used, cap } => {
                write!(
                    f,
                    "{} -> {}: state cap hit ({used} states expanded, cap {cap})",
                    self.from, self.to
                )
            }
            DegradeReason::Deadline { elapsed_ms } => {
                write!(
                    f,
                    "{} -> {}: deadline passed ({elapsed_ms} ms)",
                    self.from, self.to
                )
            }
        }
    }
}

/// A started budget: the wall clock against which `deadline` is checked.
#[derive(Debug, Clone, Copy)]
pub struct BudgetClock {
    budget: CompileBudget,
    started: Instant,
}

impl BudgetClock {
    /// Starts the clock now.
    pub fn start(budget: CompileBudget) -> Self {
        BudgetClock {
            budget,
            started: Instant::now(),
        }
    }

    /// The budget being enforced.
    pub fn budget(&self) -> &CompileBudget {
        &self.budget
    }

    /// Milliseconds since the clock started.
    pub fn elapsed_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    /// True once the wall-clock deadline has passed.
    pub fn expired(&self) -> bool {
        match self.budget.deadline {
            Some(d) => self.started.elapsed() >= d,
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_budget_is_effectively_unlimited() {
        let b = CompileBudget::default();
        assert_eq!(b.deadline, None);
        assert_eq!(b.max_states, CompileBudget::DEFAULT_MAX_STATES);
        assert!(!BudgetClock::start(b).expired());
    }

    #[test]
    fn zero_deadline_expires_immediately() {
        let clock = BudgetClock::start(CompileBudget::with_deadline(Duration::ZERO));
        assert!(clock.expired());
    }

    #[test]
    fn events_render_both_reasons() {
        let cap = DegradeEvent {
            from: Rung::Gcd2 { max_ops: 17 },
            to: Rung::Gcd2 { max_ops: 13 },
            reason: DegradeReason::StateCap { used: 10, cap: 5 },
        };
        assert!(cap.to_string().contains("state cap"));
        let ddl = DegradeEvent {
            from: Rung::ChainDp,
            to: Rung::Greedy,
            reason: DegradeReason::Deadline { elapsed_ms: 7 },
        };
        assert!(ddl.to_string().contains("deadline"));
    }
}
