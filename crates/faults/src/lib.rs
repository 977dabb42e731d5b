//! # gcd2-faults — seeded, deterministic fault injection
//!
//! A registry of **named fault points**: one in the compiler's cost
//! evaluation, four in the inference runtime. A chaos test *arms* a
//! [`FaultPlan`] — which point fires, what it does, and on which hit —
//! runs the pipeline, and asserts the robustness contract: a fault never
//! escapes an entry point as a panic, and a delay never changes a
//! result.
//!
//! Instrumented crates call [`fire`] at their fault points. With the
//! `fault-injection` feature **off** (the default for production and the
//! tier-1 test suite), `fire` is an inert inline no-op; with it on, the
//! armed plan decides per hit whether to panic or sleep.
//!
//! Determinism: a fault is keyed by `(point, trigger hit count)`. Hit
//! counting is global and atomic under the registry lock, so the fault
//! fires on exactly the N-th evaluation of its point regardless of which
//! thread evaluates it.
//!
//! The compiler is a pure function of its graph, so its one point sits
//! inside its one panic guard (`gcd2::Compiler::try_compile`) and tests
//! that guard; the artifact store and the parser are driven by real
//! inputs (torn files, hostile bytes, malformed text) instead. The
//! serving gateway has no fault points: its decisions are a pure state
//! machine, and a hang, a failed request or a late answer is an event
//! its scenario tests feed it (`tests/gateway_scenarios.rs`):
//!
//! | point              | where it fires                                   |
//! |--------------------|--------------------------------------------------|
//! | `cost.eval`        | cost memo's compute closure (`gcd2-kernels`)     |
//! | `infer.arena`      | activation-arena allocation (`gcd2::infer`)      |
//! | `infer.prep`       | GEMM operand staging (im2col/transpose)          |
//! | `infer.gemm`       | blocked-GEMM dispatch (`gcd2-kernels::tiled`)    |
//! | `infer.elementwise`| host elementwise/pool/shape step dispatch        |

use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

/// The inference-runtime fault points, the ones [`FaultPlan::from_seed`]
/// draws from.
pub const RUNTIME_POINTS: [&str; 4] = [
    "infer.arena",
    "infer.prep",
    "infer.gemm",
    "infer.elementwise",
];

/// Every canonical fault-point name: the compiler's one point, then
/// [`RUNTIME_POINTS`].
pub const POINTS: [&str; 5] = [
    "cost.eval",
    "infer.arena",
    "infer.prep",
    "infer.gemm",
    "infer.elementwise",
];

/// What an armed fault does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic with an `injected fault` message. Exercises `catch_unwind`
    /// isolation.
    Panic,
    /// Sleep for the given number of milliseconds. Exercises deadline
    /// budgets and slow-worker tolerance; never changes results.
    Delay {
        /// Sleep duration per firing.
        millis: u64,
    },
}

/// One armed fault: a point, an action, and when it triggers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fault {
    /// Fault-point name (see [`POINTS`]).
    pub point: String,
    /// What happens on firing.
    pub kind: FaultKind,
    /// 1-based hit index at which the fault first fires.
    pub trigger: u64,
    /// When `true`, the fault fires on *every* hit from `trigger` on —
    /// modelling a persistent failure that resubmitting cannot clear. When
    /// `false` it fires exactly once, modelling a transient failure.
    pub sticky: bool,
}

/// A set of faults to arm together.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// An empty plan (no faults fire).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a transient fault: fires exactly once, on the `trigger`-th
    /// hit of `point`.
    pub fn once(self, point: &str, kind: FaultKind, trigger: u64) -> Self {
        self.with(point, kind, trigger, false)
    }

    /// Adds a persistent fault: fires on every hit from `trigger` on.
    pub fn sticky(self, point: &str, kind: FaultKind, trigger: u64) -> Self {
        self.with(point, kind, trigger, true)
    }

    fn with(mut self, point: &str, kind: FaultKind, trigger: u64, sticky: bool) -> Self {
        self.faults.push(Fault {
            point: point.to_string(),
            kind,
            trigger: trigger.max(1),
            sticky,
        });
        self
    }

    /// The armed faults.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Derives a plan deterministically from a seed: 1–3 faults over
    /// [`RUNTIME_POINTS`], two panics to one 1–3 ms delay, triggers in
    /// the first 64 hits, one fault in four sticky (a persistent
    /// hardware or memory failure). The same seed always yields the same
    /// plan, so chaos runs are reproducible from their seed alone.
    pub fn from_seed(seed: u64) -> Self {
        // The salt keeps the plans CI's fixed seeds have always drawn.
        let mut next = splitmix64(seed ^ 0x52_54_43_48_41_4f_53);
        let mut plan = FaultPlan::new();
        for _ in 0..1 + next() % 3 {
            let point = RUNTIME_POINTS[(next() % RUNTIME_POINTS.len() as u64) as usize];
            let kind = match next() % 3 {
                2 => FaultKind::Delay {
                    millis: 1 + next() % 3,
                },
                _ => FaultKind::Panic,
            };
            let trigger = 1 + next() % 64;
            let sticky = next().is_multiple_of(4);
            plan = plan.with(point, kind, trigger, sticky);
        }
        plan
    }
}

/// The seeds a chaos suite's seeded scenario sweeps: its `fixed` CI
/// seeds, plus one operator-chosen seed from `GCD2_CHAOS_SEED` for
/// ad-hoc exploration (the same variable for every layer's suite).
pub fn chaos_seeds(fixed: &[u64]) -> Vec<u64> {
    let extra = std::env::var("GCD2_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok());
    fixed.iter().copied().chain(extra).collect()
}

/// SplitMix64: tiny, well-distributed, and dependency-free.
fn splitmix64(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed.wrapping_add(0x9e3779b97f4a7c15);
    move || {
        let mut z = state;
        state = state.wrapping_add(0x9e3779b97f4a7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }
}

// `plan`/`fired` are only consulted by the feature-gated `fire`.
#[cfg_attr(not(feature = "fault-injection"), allow(dead_code))]
struct Registry {
    plan: FaultPlan,
    /// Hits observed per point, and per-fault fired flags.
    hits: HashMap<String, u64>,
    fired: Vec<u64>,
}

fn registry() -> &'static Mutex<Option<Registry>> {
    static REGISTRY: OnceLock<Mutex<Option<Registry>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(None))
}

fn registry_lock() -> MutexGuard<'static, Option<Registry>> {
    // An injected panic can unwind through a `fire` call while this lock
    // is held only if the panic is raised *outside* the critical section
    // (see `fire`), but be defensive anyway: the registry state is a
    // plain counter table, always valid.
    registry().lock().unwrap_or_else(PoisonError::into_inner)
}

/// Serializes chaos tests: arming is process-global, so two concurrently
/// armed plans would interfere.
fn test_gate() -> &'static Mutex<()> {
    static GATE: Mutex<()> = Mutex::new(());
    &GATE
}

/// An armed fault plan. Dropping it disarms the registry and releases
/// the cross-test serialization gate.
pub struct Armed {
    _gate: MutexGuard<'static, ()>,
}

impl Drop for Armed {
    fn drop(&mut self) {
        *registry_lock() = None;
    }
}

/// Arms `plan` process-wide and returns a guard; faults fire until the
/// guard is dropped. Holding the guard serializes concurrently running
/// chaos tests (the registry is global).
pub fn arm(plan: FaultPlan) -> Armed {
    let gate = test_gate().lock().unwrap_or_else(PoisonError::into_inner);
    let fired = vec![0; plan.faults.len()];
    *registry_lock() = Some(Registry {
        plan,
        hits: HashMap::new(),
        fired,
    });
    Armed { _gate: gate }
}

/// Total hits observed at `point` under the currently armed plan.
pub fn hits(point: &str) -> u64 {
    registry_lock()
        .as_ref()
        .and_then(|r| r.hits.get(point).copied())
        .unwrap_or(0)
}

/// Evaluates the fault point `point` under the armed plan.
///
/// Increments the point's hit counter; if an armed fault triggers on
/// this hit it acts: `Panic` panics (callers are expected to isolate
/// with `catch_unwind`), `Delay` sleeps.
///
/// With the `fault-injection` feature disabled this is an inert no-op.
#[cfg(feature = "fault-injection")]
pub fn fire(point: &str) {
    let action = {
        let mut guard = registry_lock();
        let Some(reg) = guard.as_mut() else {
            return;
        };
        let hit = reg.hits.entry(point.to_string()).or_insert(0);
        *hit += 1;
        let hit = *hit;
        let mut action = None;
        for (i, fault) in reg.plan.faults.iter().enumerate() {
            if fault.point != point {
                continue;
            }
            let due = if fault.sticky {
                hit >= fault.trigger
            } else {
                hit == fault.trigger && reg.fired[i] == 0
            };
            if due {
                reg.fired[i] += 1;
                action = Some(fault.kind);
                break;
            }
        }
        action
        // Lock released here: the panic below unwinds with the registry
        // unlocked and its counters consistent.
    };
    match action {
        Some(FaultKind::Panic) => panic!("injected fault at {point}"),
        Some(FaultKind::Delay { millis }) => {
            std::thread::sleep(std::time::Duration::from_millis(millis));
        }
        None => {}
    }
}

/// Inert stub compiled when fault injection is disabled.
#[cfg(not(feature = "fault-injection"))]
#[inline(always)]
pub fn fire(_point: &str) {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_are_reproducible() {
        for seed in [0u64, 1, 7, 42, 2024, u64::MAX] {
            let plan = FaultPlan::from_seed(seed);
            assert_eq!(plan, FaultPlan::from_seed(seed));
            assert!(!plan.faults().is_empty() && plan.faults().len() <= 3);
            for f in plan.faults() {
                assert!(RUNTIME_POINTS.contains(&f.point.as_str()), "{f:?}");
                assert!(f.trigger >= 1);
            }
        }
    }

    /// A small seed range must reach every runtime point, or the sweep
    /// would leave that code unexercised.
    #[test]
    fn small_seed_ranges_reach_every_runtime_point() {
        for point in RUNTIME_POINTS {
            let reached = (0..64).any(|s| {
                FaultPlan::from_seed(s)
                    .faults()
                    .iter()
                    .any(|f| f.point == point)
            });
            assert!(reached, "{point}");
        }
    }

    /// The plans the two CI seeds draw: the runtime chaos suite's
    /// fixed-seed scenario depends on these exact faults, so a change
    /// to the generator re-pins them here.
    #[test]
    fn ci_seed_plans_are_pinned() {
        let show = |plan: &FaultPlan| {
            let faults = plan.faults().iter().map(|f| {
                let sticky = if f.sticky { " sticky" } else { "" };
                format!("{} {:?} @{}{sticky}", f.point, f.kind, f.trigger)
            });
            faults.collect::<Vec<_>>().join(", ")
        };
        let pinned = [
            (7, "infer.prep Delay { millis: 2 } @40"),
            (
                2024,
                "infer.elementwise Panic @4, infer.arena Panic @26, \
                 infer.elementwise Delay { millis: 3 } @47 sticky",
            ),
        ];
        for (seed, plan) in pinned {
            assert_eq!(show(&FaultPlan::from_seed(seed)), plan, "seed {seed}");
        }
    }

    #[test]
    fn points_are_the_compiler_point_then_the_runtime_points() {
        assert_eq!(POINTS[0], "cost.eval");
        assert_eq!(POINTS[1..], RUNTIME_POINTS);
    }

    #[test]
    fn different_seeds_differ_somewhere() {
        let plans: Vec<FaultPlan> = (0..16).map(FaultPlan::from_seed).collect();
        assert!(plans.windows(2).any(|w| w[0] != w[1]));
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn transient_fault_fires_exactly_once() {
        let _armed = arm(FaultPlan::new().once("cost.eval", FaultKind::Panic, 3));
        for i in 1..=5u64 {
            let r = std::panic::catch_unwind(|| fire("cost.eval"));
            assert_eq!(r.is_err(), i == 3, "hit {i}");
        }
        assert_eq!(hits("cost.eval"), 5);
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn sticky_fault_keeps_firing() {
        let _armed = arm(FaultPlan::new().sticky("infer.gemm", FaultKind::Panic, 2));
        assert!(std::panic::catch_unwind(|| fire("infer.gemm")).is_ok());
        for _ in 0..3 {
            assert!(std::panic::catch_unwind(|| fire("infer.gemm")).is_err());
        }
    }

    #[test]
    fn an_empty_plan_fires_nothing() {
        // Holding the gate keeps the armed tests' faults out.
        let _quiet = arm(FaultPlan::new());
        fire("cost.eval");
    }
}
