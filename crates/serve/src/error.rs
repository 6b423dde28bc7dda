//! Typed serving errors and their retry classification.
//!
//! Every request submitted to a [`crate::ServeEngine`] terminates in
//! exactly one of two ways: an output, or one of these errors — there is
//! no third state (no hung channel, no panic escaping to the caller).
//! Overload-control errors ([`ServeError::Overloaded`],
//! [`ServeError::DeadlineExceeded`]) say "not now": the request was valid
//! but the server chose to shed it, and [`ServeError::is_retryable`]
//! tells clients they may resubmit. Validation errors say "not ever":
//! resubmitting the same request verbatim cannot succeed.

use std::time::Duration;

use alaya_core::StoreError;
use alaya_device::memory::OutOfMemory;

use crate::engine::SessionId;

/// Serving-layer errors. Admission failures carry the tracker's typed
/// [`OutOfMemory`] so callers can shed or retry with real numbers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// The session id is not (or no longer) registered.
    UnknownSession(SessionId),
    /// Admission control rejected the session: the device budget is full.
    OutOfMemory(OutOfMemory),
    /// The engine is shutting down; the request was not executed.
    ShuttingDown,
    /// The layer index is out of range for the model; rejected before
    /// touching the session or the scheduler.
    InvalidLayer {
        /// The rejected layer index.
        layer: usize,
        /// Layers the model has.
        n_layers: usize,
    },
    /// A query/key/value tensor does not match the model geometry; the
    /// call was rejected before touching the session or the scheduler, so
    /// the session stays consistent and co-batched tenants are unaffected.
    InvalidShape {
        /// Which tensor was malformed ("query", "key" or "value").
        what: &'static str,
        /// Heads the model expects for that tensor.
        expected_heads: usize,
        /// Per-head dimension the model expects.
        expected_dim: usize,
    },
    /// Executing the batch containing this request panicked; the whole
    /// batch was aborted with this error, the engine lives on. A backstop —
    /// known-malformed requests are rejected up front as
    /// [`ServeError::InvalidShape`].
    ExecutionPanicked,
    /// A background store's KV merge or index build panicked; no context
    /// was published and the session lives on.
    StoreFailed(StoreError),
    /// `admit` was called with an empty prompt (the engine needs at least
    /// one token to produce logits); nothing was reserved.
    EmptyPrompt,
    /// `store` was called on a session whose noted tokens do not cover its
    /// KV positions (call `note_tokens` during generation); nothing was
    /// stored and the session stays usable.
    TokensNotNoted {
        /// Token ids the session knows.
        noted: usize,
        /// KV positions the session holds.
        positions: usize,
    },
    /// Typed backpressure: the scheduler queue is at its configured
    /// request/byte limit and the request was rejected *at submission*
    /// (it never occupied a queue slot). Retry after `retry_after_hint` —
    /// an estimate of when a slot frees up, derived from the queue depth
    /// and the per-batch execution estimate.
    Overloaded {
        /// Requests queued when the submission was rejected.
        queued_requests: usize,
        /// Request bytes queued when the submission was rejected.
        queued_bytes: u64,
        /// Suggested client backoff before resubmitting.
        retry_after_hint: Duration,
    },
    /// The request waited in the queue past its deadline and was shed
    /// without executing — answering it late would burn batch capacity on
    /// an output the SLO already counts as failed.
    DeadlineExceeded {
        /// How long the request had been queued when it was shed.
        queued_for: Duration,
    },
}

impl ServeError {
    /// Whether resubmitting the same request may succeed.
    ///
    /// Overload control ([`ServeError::Overloaded`],
    /// [`ServeError::DeadlineExceeded`], [`ServeError::OutOfMemory`]) and
    /// the panic backstop ([`ServeError::ExecutionPanicked`] — attention
    /// is read-only on the session, so a request aborted by a co-batched
    /// tenant's panic can safely run again) are transient: load drains,
    /// budgets free up. Validation errors and terminal states are not —
    /// the identical request fails the identical check every time.
    pub fn is_retryable(&self) -> bool {
        match self {
            ServeError::Overloaded { .. }
            | ServeError::DeadlineExceeded { .. }
            | ServeError::OutOfMemory(_)
            | ServeError::ExecutionPanicked => true,
            ServeError::UnknownSession(_)
            | ServeError::ShuttingDown
            | ServeError::InvalidLayer { .. }
            | ServeError::InvalidShape { .. }
            | ServeError::StoreFailed(_)
            | ServeError::EmptyPrompt
            | ServeError::TokensNotNoted { .. } => false,
        }
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::UnknownSession(id) => write!(f, "unknown session {id:?}"),
            ServeError::OutOfMemory(oom) => write!(f, "admission rejected: {oom}"),
            ServeError::ShuttingDown => write!(f, "serving engine is shutting down"),
            ServeError::InvalidLayer { layer, n_layers } => {
                write!(
                    f,
                    "layer {layer} out of range: the model has {n_layers} layers"
                )
            }
            ServeError::InvalidShape {
                what,
                expected_heads,
                expected_dim,
            } => write!(
                f,
                "{what} tensor must be {expected_heads} heads x {expected_dim} dims"
            ),
            ServeError::ExecutionPanicked => {
                write!(f, "batch execution panicked; request aborted")
            }
            ServeError::StoreFailed(err) => write!(f, "background store failed: {err}"),
            ServeError::EmptyPrompt => write!(f, "prompt must contain at least one token"),
            ServeError::TokensNotNoted { noted, positions } => write!(
                f,
                "session knows {noted} tokens but holds {positions} positions; call note_tokens()"
            ),
            ServeError::Overloaded {
                queued_requests,
                queued_bytes,
                retry_after_hint,
            } => write!(
                f,
                "scheduler overloaded ({queued_requests} requests / {queued_bytes} bytes queued); \
                 retry after {retry_after_hint:?}"
            ),
            ServeError::DeadlineExceeded { queued_for } => {
                write!(
                    f,
                    "deadline exceeded after {queued_for:?} in queue; request shed"
                )
            }
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::OutOfMemory(oom) => Some(oom),
            ServeError::StoreFailed(err) => Some(err),
            _ => None,
        }
    }
}

impl From<OutOfMemory> for ServeError {
    fn from(oom: OutOfMemory) -> Self {
        ServeError::OutOfMemory(oom)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as _;

    /// One witness value per variant. The match is exhaustive on purpose:
    /// adding a variant without extending this test fails to compile, so
    /// Display / `source` / `is_retryable` coverage can never silently rot.
    fn witnesses() -> Vec<ServeError> {
        let all = [
            ServeError::UnknownSession(SessionId(7)),
            ServeError::OutOfMemory(OutOfMemory {
                requested: 64,
                in_use: 900,
                budget: 1000,
            }),
            ServeError::ShuttingDown,
            ServeError::InvalidLayer {
                layer: 9,
                n_layers: 2,
            },
            ServeError::InvalidShape {
                what: "query",
                expected_heads: 4,
                expected_dim: 16,
            },
            ServeError::ExecutionPanicked,
            ServeError::StoreFailed(StoreError {
                message: "index build panicked".into(),
            }),
            ServeError::Overloaded {
                queued_requests: 4096,
                queued_bytes: 1 << 20,
                retry_after_hint: Duration::from_millis(12),
            },
            ServeError::DeadlineExceeded {
                queued_for: Duration::from_millis(250),
            },
            ServeError::EmptyPrompt,
            ServeError::TokensNotNoted {
                noted: 0,
                positions: 12,
            },
        ];
        for e in &all {
            // The exhaustiveness guard proper.
            match e {
                ServeError::UnknownSession(_)
                | ServeError::OutOfMemory(_)
                | ServeError::ShuttingDown
                | ServeError::InvalidLayer { .. }
                | ServeError::InvalidShape { .. }
                | ServeError::ExecutionPanicked
                | ServeError::StoreFailed(_)
                | ServeError::Overloaded { .. }
                | ServeError::DeadlineExceeded { .. }
                | ServeError::EmptyPrompt
                | ServeError::TokensNotNoted { .. } => {}
            }
        }
        all.into()
    }

    #[test]
    fn every_variant_displays_distinctly_and_nonempty() {
        let rendered: Vec<String> = witnesses().iter().map(|e| e.to_string()).collect();
        for (i, s) in rendered.iter().enumerate() {
            assert!(!s.is_empty(), "variant {i} renders empty");
            for (j, other) in rendered.iter().enumerate() {
                if i != j {
                    assert_ne!(s, other, "variants {i} and {j} render identically");
                }
            }
        }
        // Overload errors carry their numbers into the message.
        assert!(rendered[7].contains("4096"));
        assert!(rendered[8].contains("250"));
    }

    #[test]
    fn retry_classification_is_exhaustive_and_stable() {
        let want = [
            false, true, false, false, false, true, false, true, true, false, false,
        ];
        let got: Vec<bool> = witnesses().iter().map(|e| e.is_retryable()).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn error_trait_round_trips_through_source() {
        for e in witnesses() {
            // Display and Debug both work through the trait object.
            let dyn_err: &dyn std::error::Error = &e;
            assert!(!dyn_err.to_string().is_empty());
            match &e {
                ServeError::OutOfMemory(oom) => {
                    let src = e.source().expect("OutOfMemory exposes its source");
                    assert_eq!(src.to_string(), oom.to_string());
                }
                ServeError::StoreFailed(err) => {
                    let src = e.source().expect("StoreFailed exposes its source");
                    assert_eq!(src.to_string(), err.to_string());
                }
                _ => assert!(e.source().is_none()),
            }
        }
    }

    #[test]
    fn from_out_of_memory_round_trips() {
        let oom = OutOfMemory {
            requested: 10,
            in_use: 5,
            budget: 12,
        };
        let e: ServeError = oom.clone().into();
        match e {
            ServeError::OutOfMemory(inner) => assert_eq!(inner, oom),
            other => panic!("From<OutOfMemory> produced {other:?}"),
        }
    }
}
