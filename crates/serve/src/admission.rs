//! Admission control: reserve device memory before a session exists.
//!
//! Serving collapses when sessions are admitted optimistically and the KV
//! working set outgrows the device mid-decode. The controller makes the
//! decision *at admission time*: every session's worst-case footprint —
//! its share of the cached window plus the session-local KV window grown
//! to the configured cap — is reserved against the shared
//! [`MemoryTracker`] (the same tracker the query optimizer probes, so
//! admitted-but-idle reservations correctly push the optimizer toward the
//! low-memory DIPR plans). Rejection is a typed [`OutOfMemory`] value, not
//! a panic: the caller can queue, shed, or retry.

use std::sync::Arc;

use alaya_core::DbConfig;
use alaya_device::memory::{MemoryGuard, MemoryTracker, OutOfMemory};

/// Reserves per-session device bytes against a shared budget.
#[derive(Clone)]
pub struct AdmissionController {
    tracker: Arc<MemoryTracker>,
    bytes_per_session: u64,
}

/// Device bytes one token of session-local KV pins: K and V per layer and
/// KV head, f32.
pub fn per_token_bytes(cfg: &DbConfig) -> u64 {
    let m = &cfg.model;
    (m.n_layers * m.n_kv_heads * m.head_dim * 2 * 4) as u64
}

/// Device bytes one session pins at admission: the cached `[initial+last]`
/// window over the stored context plus a session-local KV window of up to
/// `max_local_tokens` tokens, both across every layer and KV head (f32).
/// A decode that outgrows the local window grows this reservation by
/// `max_local_tokens` more tokens at a time (see `ServeEngine::update`),
/// so the tracker follows real usage.
pub fn session_bytes(cfg: &DbConfig, max_local_tokens: usize) -> u64 {
    let window_tokens = (cfg.window.initial + cfg.window.last) as u64;
    per_token_bytes(cfg) * (window_tokens + max_local_tokens as u64)
}

impl AdmissionController {
    /// A controller reserving `bytes_per_session` per admission from
    /// `tracker`.
    pub fn new(tracker: Arc<MemoryTracker>, bytes_per_session: u64) -> Self {
        Self {
            tracker,
            bytes_per_session,
        }
    }

    /// Bytes reserved per admitted session.
    pub fn bytes_per_session(&self) -> u64 {
        self.bytes_per_session
    }

    /// Attempts to admit one session, returning the RAII reservation.
    /// Dropping the guard (session stored or closed) frees the budget for
    /// the next admission.
    pub fn admit(&self) -> Result<MemoryGuard, OutOfMemory> {
        self.tracker.alloc(self.bytes_per_session)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alaya_llm::ModelConfig;

    #[test]
    fn session_bytes_scale_with_geometry_and_cap() {
        let cfg = DbConfig::for_tests(ModelConfig::tiny());
        let small = session_bytes(&cfg, 16);
        let large = session_bytes(&cfg, 160);
        assert!(small > 0);
        assert!(large > small);
    }

    #[test]
    fn admission_is_budget_limited_and_released_on_drop() {
        let tracker = MemoryTracker::new(1000);
        let ctl = AdmissionController::new(Arc::clone(&tracker), 400);
        let a = ctl.admit().unwrap();
        let b = ctl.admit().unwrap();
        let err = ctl.admit().unwrap_err();
        assert_eq!(err.requested, 400);
        assert_eq!(err.in_use, 800);
        drop(a);
        let c = ctl.admit().unwrap();
        drop(b);
        drop(c);
        assert_eq!(tracker.in_use(), 0);
    }
}
