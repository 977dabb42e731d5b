//! Structured compiler errors.
//!
//! [`Gcd2Error`] is the single error type of the fallible compilation
//! entry points ([`crate::Compiler::try_compile`] and friends). Every
//! way a compile can fail — malformed serialized text, an inadmissible
//! graph, a verifier rejection, or a defect inside the compiler itself —
//! maps to one variant, so callers embedding the compiler never have to
//! `catch_unwind` around it.

use std::fmt;

use gcd2_artifact::ArtifactError;
use gcd2_cgraph::{GraphBuildError, ParseGraphError};
use gcd2_codegen::LowerError;

pub use crate::admit::AdmissionError;

/// Why a fallible compilation entry point failed.
#[derive(Debug, Clone)]
pub enum Gcd2Error {
    /// The serialized graph text did not parse
    /// ([`gcd2_cgraph::from_text`]).
    Parse(ParseGraphError),
    /// A graph edit was structurally invalid (unknown input id or a
    /// shape-inference failure).
    Build(GraphBuildError),
    /// The graph parsed and built but fails the compiler's admission
    /// checks (size limits, degenerate shapes, dangling edges).
    Admission(AdmissionError),
    /// Lowering failed (bad assignment, or the static verifier
    /// rejected the emitted program).
    Lower(LowerError),
    /// The compiler itself panicked. Parsing, admission and the pipeline
    /// run under one panic guard, so internal defects surface here
    /// instead of unwinding through the caller.
    Internal {
        /// The captured panic message.
        message: String,
    },
    /// Building an [`crate::InferencePlan`] from the compiled model was
    /// rejected by the runtime's own validation.
    Infer(InferError),
    /// A serialized plan artifact was rejected: container corruption,
    /// version skew, a bounds violation in a declared length, or an
    /// integrity-checksum mismatch ([`crate::artifact::decode`]).
    Artifact(ArtifactError),
}

impl fmt::Display for Gcd2Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Gcd2Error::Parse(e) => write!(f, "graph text rejected: {e}"),
            Gcd2Error::Build(e) => write!(f, "graph construction failed: {e}"),
            Gcd2Error::Admission(e) => write!(f, "graph rejected at admission: {e}"),
            Gcd2Error::Lower(e) => write!(f, "lowering failed: {e}"),
            Gcd2Error::Internal { message } => {
                write!(f, "internal compiler error (caught panic): {message}")
            }
            Gcd2Error::Infer(e) => write!(f, "inference plan rejected: {e}"),
            Gcd2Error::Artifact(e) => write!(f, "plan artifact rejected: {e}"),
        }
    }
}

impl std::error::Error for Gcd2Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Gcd2Error::Parse(e) => Some(e),
            Gcd2Error::Build(e) => Some(e),
            Gcd2Error::Admission(e) => Some(e),
            Gcd2Error::Lower(e) => Some(e),
            Gcd2Error::Internal { .. } => None,
            Gcd2Error::Infer(e) => Some(e),
            Gcd2Error::Artifact(e) => Some(e),
        }
    }
}

impl From<ArtifactError> for Gcd2Error {
    fn from(e: ArtifactError) -> Self {
        Gcd2Error::Artifact(e)
    }
}

impl From<InferError> for Gcd2Error {
    fn from(e: InferError) -> Self {
        Gcd2Error::Infer(e)
    }
}

impl From<ParseGraphError> for Gcd2Error {
    fn from(e: ParseGraphError) -> Self {
        Gcd2Error::Parse(e)
    }
}

impl From<GraphBuildError> for Gcd2Error {
    fn from(e: GraphBuildError) -> Self {
        Gcd2Error::Build(e)
    }
}

impl From<AdmissionError> for Gcd2Error {
    fn from(e: AdmissionError) -> Self {
        Gcd2Error::Admission(e)
    }
}

impl From<LowerError> for Gcd2Error {
    fn from(e: LowerError) -> Self {
        Gcd2Error::Lower(e)
    }
}

/// Renders a `catch_unwind` payload as text (`&str` and `String`
/// payloads verbatim, anything else a placeholder).
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Why a fallible inference entry point refused or failed an execution.
///
/// This is the runtime mirror of [`Gcd2Error`]: every way a serving
/// request can go wrong — a malformed input, a stale arena, a tampered
/// plan, a blown deadline, a panic inside the runtime, an overloaded
/// server — maps to one variant, so a serving layer embedding
/// [`crate::InferencePlan`] never has to `catch_unwind` around it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InferError {
    /// The input buffer does not hold exactly the flattened input
    /// tensor the plan was built for.
    InputShape {
        /// Bytes the plan's input tensor occupies.
        expected: usize,
        /// Bytes the caller handed in.
        got: usize,
    },
    /// The arena was checked out from a *different* plan: its buffers
    /// are sized for another schedule and would silently mis-execute.
    ArenaMismatch {
        /// Integrity checksum of the executing plan.
        plan: u64,
        /// Checksum stamped into the arena at checkout.
        arena: u64,
    },
    /// The plan's weights or step schedule no longer hash to the
    /// checksum computed at build time — memory corruption or tampering.
    IntegrityViolation {
        /// Checksum recorded when the plan was built.
        expected: u64,
        /// Checksum of the plan as it is now.
        got: u64,
    },
    /// A GEMM's worst-case accumulator magnitude exceeds `i32`: the
    /// quantization scheme cannot guarantee overflow-free execution.
    QuantOverflow {
        /// Graph node id of the offending GEMM.
        node: usize,
        /// Reduction depth that blew the bound.
        k: usize,
        /// The worst-case accumulator value.
        max_acc: i64,
    },
    /// A kernel rejected its dispatch (operand shape disagreement).
    Dispatch {
        /// Graph node id of the step whose kernel refused.
        node: usize,
        /// The kernel's own diagnostic.
        message: String,
    },
    /// Execution exceeded the caller's deadline and was abandoned at a
    /// step boundary.
    DeadlineExceeded {
        /// Time spent before giving up.
        elapsed: std::time::Duration,
        /// The configured deadline.
        deadline: std::time::Duration,
    },
    /// The gateway declared the worker executing this request
    /// wedged: its batch exceeded the configured hang deadline, so the
    /// ticket was answered with this error and a replacement worker was
    /// spawned. The request may still be computing on the wedged thread,
    /// but its result will be discarded.
    Hung {
        /// The model whose batch hung.
        model: String,
        /// How long the batch had been executing when the gateway
        /// declared it wedged.
        elapsed: std::time::Duration,
        /// The configured hang deadline it exceeded.
        deadline: std::time::Duration,
    },
    /// The model's circuit breaker is Open: its recent error rate
    /// crossed the configured threshold, so the gateway sheds this
    /// request *before* queueing it (cheaper than [`InferError::Shed`]
    /// — no queue slot, no scheduler wakeup, no ticket channel traffic).
    /// Retry after `retry_after`; by then the breaker will be probing
    /// HalfOpen.
    BreakerOpen {
        /// The model whose breaker is open.
        model: String,
        /// Time until the breaker's cooldown elapses and HalfOpen
        /// probes begin admitting requests.
        retry_after: std::time::Duration,
    },
    /// The serving queue was full; the request was rejected for
    /// backpressure and can be retried.
    QueueFull {
        /// The server's configured queue capacity.
        capacity: usize,
    },
    /// The request was load-shed: its model's queue was full and this
    /// request held (one of) the lowest priorities in contention, so the
    /// gateway dropped it to protect higher-priority traffic. Unlike
    /// [`InferError::QueueFull`], a shed can evict an *already accepted*
    /// request, resolving its ticket with this error.
    Shed {
        /// Priority of the shed request (higher values are served
        /// first; lowest is shed first).
        priority: u8,
        /// The model queue's configured capacity.
        capacity: usize,
    },
    /// The gateway is draining: shutdown has begun, already-accepted
    /// requests are still being completed, but new submissions are
    /// refused.
    Draining,
    /// The request named a model the gateway's registry does not
    /// currently hold.
    UnknownModel {
        /// The model name as submitted.
        model: String,
    },
    /// The server has been shut down (or its workers all died); the
    /// request cannot be served.
    ServerStopped,
    /// The runtime panicked under the entry-point panic guard (in the
    /// gateway, also a panic in the batch round around the request).
    Internal {
        /// The captured panic message.
        message: String,
    },
    /// The static plan analyzer (`gcd2-analyze`) found a broken
    /// invariant in a freshly built plan — an allocator or folding
    /// defect that would execute wrongly. Raised by debug builds of
    /// [`crate::InferencePlan::try_build`].
    Unsound {
        /// The analyzer's diagnostics, rendered.
        detail: String,
    },
    /// A plan artifact handed to the gateway
    /// ([`crate::InferServer::register_from_artifact`]) was rejected
    /// before admission: corruption, version skew, bounds violation, or
    /// integrity mismatch.
    Artifact(ArtifactError),
}

impl fmt::Display for InferError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InferError::InputShape { expected, got } => {
                write!(f, "input holds {got} bytes, plan expects {expected}")
            }
            InferError::ArenaMismatch { plan, arena } => {
                write!(f, "arena belongs to plan {arena:#018x}, not {plan:#018x}")
            }
            InferError::IntegrityViolation { expected, got } => write!(
                f,
                "plan integrity check failed: built as {expected:#018x}, now {got:#018x}"
            ),
            InferError::QuantOverflow { node, k, max_acc } => write!(
                f,
                "node {node}: worst-case accumulator {max_acc} over k={k} exceeds i32"
            ),
            InferError::Dispatch { node, message } => {
                write!(f, "node {node}: kernel dispatch rejected: {message}")
            }
            InferError::DeadlineExceeded { elapsed, deadline } => write!(
                f,
                "execution abandoned after {elapsed:?} (deadline {deadline:?})"
            ),
            InferError::Hung {
                model,
                elapsed,
                deadline,
            } => write!(
                f,
                "worker hung on model {model:?}: batch ran {elapsed:?} past its {deadline:?} hang deadline; worker replaced"
            ),
            InferError::BreakerOpen { model, retry_after } => write!(
                f,
                "circuit breaker open for model {model:?}; retry in {retry_after:?}"
            ),
            InferError::QueueFull { capacity } => {
                write!(f, "serving queue full ({capacity} slots); retry later")
            }
            InferError::Shed { priority, capacity } => write!(
                f,
                "request shed at priority {priority} (queue of {capacity} full of higher-priority work)"
            ),
            InferError::Draining => {
                write!(f, "gateway is draining; new submissions are refused")
            }
            InferError::UnknownModel { model } => {
                write!(f, "no model {model:?} in the gateway registry")
            }
            InferError::ServerStopped => write!(f, "inference server is stopped"),
            InferError::Internal { message } => {
                write!(f, "internal runtime error (caught panic): {message}")
            }
            InferError::Unsound { detail } => {
                write!(f, "plan failed static analysis: {detail}")
            }
            InferError::Artifact(e) => write!(f, "plan artifact rejected: {e}"),
        }
    }
}

impl std::error::Error for InferError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            InferError::Artifact(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ArtifactError> for InferError {
    fn from(e: ArtifactError) -> Self {
        InferError::Artifact(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panic_message_renders_common_payloads() {
        let p = std::panic::catch_unwind(|| panic!("plain str")).unwrap_err();
        assert_eq!(panic_message(p.as_ref()), "plain str");
        let p = std::panic::catch_unwind(|| panic!("formatted {}", 7)).unwrap_err();
        assert_eq!(panic_message(p.as_ref()), "formatted 7");
        let p = std::panic::catch_unwind(|| std::panic::panic_any(7u8)).unwrap_err();
        assert_eq!(panic_message(p.as_ref()), "non-string panic payload");
    }
}
