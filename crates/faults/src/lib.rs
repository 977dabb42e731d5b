//! # gcd2-faults — seeded, deterministic fault injection
//!
//! A registry of **named fault points** scattered through the
//! compilation pipeline (cost evaluation, cache lookup, VLIW packing,
//! model-text parsing), the inference runtime and the artifact store.
//! A chaos test *arms* a
//! [`FaultPlan`] — which point fires, what it does, and on which hit —
//! runs the pipeline, and asserts the robustness contract: every
//! injected-fault run either produces a bit-identical artifact (after
//! internal retry) or a clean structured error, never an escaped panic.
//!
//! Instrumented crates call [`fire`] at their fault points. With the
//! `fault-injection` feature **off** (the default for production and the
//! tier-1 test suite), `fire` is an inert inline no-op; with it on, the
//! armed plan decides per hit whether to panic, sleep, or report a
//! cache-corruption that the call site must recover from.
//!
//! Determinism: a fault is keyed by `(point, trigger hit count)`. Hit
//! counting is global and atomic under the registry lock, so the fault
//! fires on exactly the N-th evaluation of its point regardless of which
//! thread evaluates it; retried work re-executes the same
//! pure computation, which is what makes recovered artifacts
//! bit-identical.
//!
//! The well-known point names (one per instrumented subsystem). The
//! first four cover the compilation pipeline, the rest the inference
//! runtime and the artifact store. The serving gateway has no fault
//! points: its decisions are a pure state machine, and a hang, a failed
//! request or a late answer is an event its scenario tests feed it
//! (`tests/gateway_scenarios.rs`):
//!
//! | point              | where it fires                                   |
//! |--------------------|--------------------------------------------------|
//! | `cost.eval`        | kernel cost evaluation (`gcd2-kernels`)          |
//! | `cache.lookup`     | sharded memo lookup, lock held (`gcd2-par`)      |
//! | `pack.vliw`        | SDA block packing (`gcd2-vliw`)                  |
//! | `parse.line`       | model-text line parsing (`gcd2-cgraph`)          |
//! | `infer.arena`      | activation-arena allocation (`gcd2::infer`)      |
//! | `infer.prep`       | GEMM operand staging (im2col/transpose)          |
//! | `infer.gemm`       | blocked-GEMM dispatch (`gcd2-kernels::tiled`)    |
//! | `infer.elementwise`| host elementwise/pool/shape step dispatch        |
//! | `artifact.encode`  | artifact container serialization (`gcd2-artifact`)|
//! | `artifact.decode`  | artifact container decode (`gcd2-artifact`)      |
//! | `artifact.io`      | artifact cache load/store (`gcd2-artifact`)      |

use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

/// The compile-pipeline fault points. [`Layer::Compile`] plans draw
/// from exactly this set, so the compile chaos gate's fixed seeds keep
/// producing the same plans as new (runtime) points are added.
pub const COMPILE_POINTS: [&str; 4] = ["cost.eval", "cache.lookup", "pack.vliw", "parse.line"];

/// The inference-runtime fault points ([`Layer::Runtime`]).
pub const RUNTIME_POINTS: [&str; 4] = [
    "infer.arena",
    "infer.prep",
    "infer.gemm",
    "infer.elementwise",
];

/// The AOT-artifact fault points ([`Layer::Artifact`]):
/// container encode, container decode, and cache filesystem traffic.
/// Kept out of the earlier families so their chaos gates' fixed seeds
/// keep producing the plans they always did.
pub const ARTIFACT_POINTS: [&str; 3] = ["artifact.encode", "artifact.decode", "artifact.io"];

/// Every canonical fault-point name, for plan builders and tests.
pub const POINTS: [&str; 11] = [
    "cost.eval",
    "cache.lookup",
    "pack.vliw",
    "parse.line",
    "infer.arena",
    "infer.prep",
    "infer.gemm",
    "infer.elementwise",
    "artifact.encode",
    "artifact.decode",
    "artifact.io",
];

/// What an armed fault does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic with an `injected fault` message. Exercises `catch_unwind`
    /// isolation and the serial-retry path.
    Panic,
    /// Sleep for the given number of milliseconds. Exercises deadline
    /// budgets and slow-worker tolerance; never changes results.
    Delay {
        /// Sleep duration per firing.
        millis: u64,
    },
    /// Report a corrupted cache entry: the call site must discard the
    /// entry and recompute. Only meaningful at `cache.lookup`.
    CorruptCache,
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
    /// modelling a persistent failure that retries cannot clear. When
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
    /// the points of `layer` and of every layer beneath it (see
    /// [`Layer`]), with triggers spread over the early hits. The same
    /// `(layer, seed)` always yields the same plan, so chaos runs are
    /// reproducible from their seed alone.
    pub fn from_seed(layer: Layer, seed: u64) -> Self {
        let (salt, tables, trigger_span, may_stick) = layer.spec();
        let points = || {
            tables
                .iter()
                .flat_map(|(points, mix)| points.iter().map(move |&point| (point, mix)))
        };
        let mut next = splitmix64(seed ^ salt);
        let mut plan = FaultPlan::new();
        let count = 1 + (next() % 3) as usize;
        for _ in 0..count {
            let pick = (next() % points().count() as u64) as usize;
            let Some((point, mix)) = points().nth(pick) else {
                unreachable!("pick < the number of points");
            };
            let kind = match mix[(next() % 3) as usize] {
                FaultKind::Delay { .. } => FaultKind::Delay {
                    millis: 1 + next() % 3,
                },
                kind => kind,
            };
            let trigger = 1 + next() % trigger_span;
            let sticky = may_stick && next().is_multiple_of(4);
            plan = plan.with(point, kind, trigger, sticky);
        }
        plan
    }
}

/// The layer a seeded plan storms ([`FaultPlan::from_seed`]). Each
/// layer keeps its own seed salt and point tables, so a layer's fixed
/// chaos seeds keep producing the plans they always did as new layers
/// and points are added.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// [`COMPILE_POINTS`]: panic, delay or cache corruption, transient.
    Compile,
    /// [`RUNTIME_POINTS`]: panics or short delays, occasionally sticky
    /// to model persistent hardware/memory failures. No runtime point
    /// is a cache, so cache corruption stays the compile layer's.
    Runtime,
    /// [`ARTIFACT_POINTS`]: panics or short delays, occasionally sticky
    /// to model a persistently failing disk. Triggers stay in the first
    /// few hits — one `load_or_compile` touches each point only a
    /// handful of times.
    Artifact,
}

/// A family of fault points with the three equally likely outcomes of
/// its kind draw; a `Delay` entry then draws its own 1–3 ms duration.
type PointTable = (&'static [&'static str], [FaultKind; 3]);

const DELAY: FaultKind = FaultKind::Delay { millis: 0 };
const CRASH_HEAVY: [FaultKind; 3] = [FaultKind::Panic, FaultKind::Panic, DELAY];
const COMPILE: PointTable = (
    &COMPILE_POINTS,
    [FaultKind::Panic, DELAY, FaultKind::CorruptCache],
);
const RUNTIME: PointTable = (&RUNTIME_POINTS, CRASH_HEAVY);
const ARTIFACT: PointTable = (&ARTIFACT_POINTS, CRASH_HEAVY);

impl Layer {
    /// What distinguishes one layer's seeded plans from another's: the
    /// salt XORed into the seed (so equal seeds differ across layers),
    /// the point tables in pick order, the range `1..=n` triggers are
    /// drawn from, and whether one fault in four is sticky.
    fn spec(self) -> (u64, &'static [PointTable], u64, bool) {
        match self {
            Layer::Compile => (0, &[COMPILE], 64, false),
            Layer::Runtime => (0x52_54_43_48_41_4f_53, &[RUNTIME], 64, true),
            Layer::Artifact => (0x41_52_54_49_46_41_43, &[ARTIFACT], 8, true),
        }
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

/// What a call site must do after [`fire`] returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use = "CorruptCache requires the call site to discard the entry"]
pub enum Injection {
    /// Nothing fired (or only a delay, already slept).
    None,
    /// The cached value read under this point is corrupt: discard the
    /// entry and recompute.
    CorruptCache,
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
/// with `catch_unwind`), `Delay` sleeps then reports
/// [`Injection::None`], `CorruptCache` reports
/// [`Injection::CorruptCache`] for the call site to handle.
///
/// With the `fault-injection` feature disabled this is an inert no-op.
#[cfg(feature = "fault-injection")]
pub fn fire(point: &str) -> Injection {
    let action = {
        let mut guard = registry_lock();
        let Some(reg) = guard.as_mut() else {
            return Injection::None;
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
            Injection::None
        }
        Some(FaultKind::CorruptCache) => Injection::CorruptCache,
        None => Injection::None,
    }
}

/// Inert stub compiled when fault injection is disabled.
#[cfg(not(feature = "fault-injection"))]
#[inline(always)]
pub fn fire(_point: &str) -> Injection {
    Injection::None
}

#[cfg(test)]
mod tests {
    use super::*;

    const LAYERS: [(Layer, &[&[&str]]); 3] = [
        (Layer::Compile, &[&COMPILE_POINTS]),
        (Layer::Runtime, &[&RUNTIME_POINTS]),
        (Layer::Artifact, &[&ARTIFACT_POINTS]),
    ];

    #[test]
    fn seeded_plans_are_reproducible_and_layer_scoped() {
        for (layer, tables) in LAYERS {
            for seed in [0u64, 1, 7, 42, 2024, u64::MAX] {
                let plan = FaultPlan::from_seed(layer, seed);
                assert_eq!(plan, FaultPlan::from_seed(layer, seed));
                assert!(!plan.faults().is_empty() && plan.faults().len() <= 3);
                for f in plan.faults() {
                    assert!(
                        tables.iter().any(|t| t.contains(&f.point.as_str())),
                        "{layer:?} sweeps stay on their own and lower layers: {f:?}"
                    );
                    assert!(f.trigger >= 1);
                    assert!(
                        layer == Layer::Compile || !matches!(f.kind, FaultKind::CorruptCache),
                        "seeded {layer:?} sweeps stay on crash/latency faults"
                    );
                    assert!(layer != Layer::Compile || !f.sticky);
                }
            }
        }
    }

    /// A small seed range must reach every point of the layer's own
    /// table, or the sweep would leave that code unexercised.
    #[test]
    fn small_seed_ranges_reach_each_layers_own_points() {
        let reaches = |layer, seeds: std::ops::Range<u64>, point: &str| {
            seeds.clone().any(|s| {
                FaultPlan::from_seed(layer, s)
                    .faults()
                    .iter()
                    .any(|f| f.point == point)
            })
        };
        for point in ARTIFACT_POINTS {
            assert!(reaches(Layer::Artifact, 0..64, point), "{point}");
        }
    }

    /// The plans the two CI seeds draw for every layer: every chaos
    /// suite's fixed-seed scenario depends on these exact faults, so a
    /// change to a point table re-pins them here.
    #[test]
    fn ci_seed_plans_are_pinned_for_every_layer() {
        let show = |plan: &FaultPlan| {
            let faults = plan.faults().iter().map(|f| {
                let sticky = if f.sticky { " sticky" } else { "" };
                format!("{} {:?} @{}{sticky}", f.point, f.kind, f.trigger)
            });
            faults.collect::<Vec<_>>().join(", ")
        };
        let pinned = [
            (Layer::Compile, 7, "cost.eval Panic @12"),
            (Layer::Runtime, 7, "infer.prep Delay { millis: 2 } @40"),
            (Layer::Artifact, 7, "artifact.io Panic @1"),
            (
                Layer::Compile,
                2024,
                "pack.vliw Panic @26, pack.vliw Delay { millis: 3 } @19",
            ),
            (
                Layer::Runtime,
                2024,
                "infer.elementwise Panic @4, infer.arena Panic @26, \
                 infer.elementwise Delay { millis: 3 } @47 sticky",
            ),
            (
                Layer::Artifact,
                2024,
                "artifact.io Panic @5 sticky, artifact.io Panic @4",
            ),
        ];
        for (layer, seed, plan) in pinned {
            assert_eq!(
                show(&FaultPlan::from_seed(layer, seed)),
                plan,
                "{layer:?} {seed}"
            );
        }
    }

    #[test]
    fn point_sets_partition_cleanly() {
        assert_eq!(
            COMPILE_POINTS.len() + RUNTIME_POINTS.len() + ARTIFACT_POINTS.len(),
            POINTS.len()
        );
        for p in COMPILE_POINTS
            .iter()
            .chain(RUNTIME_POINTS.iter())
            .chain(ARTIFACT_POINTS.iter())
        {
            assert!(POINTS.contains(p));
        }
    }

    #[test]
    fn different_seeds_differ_somewhere() {
        let plans: Vec<FaultPlan> = (0..16)
            .map(|seed| FaultPlan::from_seed(Layer::Compile, seed))
            .collect();
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
        let _armed = arm(FaultPlan::new().sticky("pack.vliw", FaultKind::Panic, 2));
        assert!(std::panic::catch_unwind(|| fire("pack.vliw")).is_ok());
        for _ in 0..3 {
            assert!(std::panic::catch_unwind(|| fire("pack.vliw")).is_err());
        }
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn corrupt_cache_is_reported_not_thrown() {
        let _armed = arm(FaultPlan::new().once("cache.lookup", FaultKind::CorruptCache, 1));
        assert_eq!(fire("cache.lookup"), Injection::CorruptCache);
        assert_eq!(fire("cache.lookup"), Injection::None);
    }

    #[test]
    fn disarmed_fire_is_inert() {
        assert_eq!(fire("cost.eval"), Injection::None);
    }
}
