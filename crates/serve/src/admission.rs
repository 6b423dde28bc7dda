//! Admission control: reserve device memory before a session exists.
//!
//! Serving collapses when sessions are admitted optimistically and the KV
//! working set outgrows the device mid-decode. [`ServeEngine::admit`]
//! makes the decision *at admission time*: every session's worst-case
//! footprint — its share of the cached window plus the session-local KV
//! window grown to the configured cap, [`session_bytes`] — is reserved
//! against the shared [`MemoryTracker`] (the same tracker the query
//! optimizer probes, so admitted-but-idle reservations correctly push the
//! optimizer toward the low-memory DIPR plans). Rejection is a typed
//! [`ServeError::OutOfMemory`] value, not a panic: the caller can queue,
//! shed, or retry.
//!
//! [`ServeEngine::admit`]: crate::ServeEngine::admit
//! [`MemoryTracker`]: alaya_device::memory::MemoryTracker
//! [`ServeError::OutOfMemory`]: crate::ServeError::OutOfMemory

use alaya_core::DbConfig;

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

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use alaya_core::Db;
    use alaya_device::memory::MemoryTracker;
    use alaya_llm::ModelConfig;

    use crate::{ServeConfig, ServeEngine, ServeError};

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
        let db = Arc::new(Db::new(DbConfig::for_tests(ModelConfig::tiny())));
        let per_session = session_bytes(db.config(), 16);
        let tracker = MemoryTracker::new(per_session * 5 / 2);
        let eng = ServeEngine::with_options(
            db,
            ServeConfig {
                max_local_tokens: 16,
                admission: Some(Arc::clone(&tracker)),
                ..Default::default()
            },
        );
        let (a, _) = eng.admit(&[1]).unwrap();
        let (b, _) = eng.admit(&[2]).unwrap();
        match eng.admit(&[3]) {
            Err(ServeError::OutOfMemory(oom)) => {
                assert_eq!(oom.requested, per_session);
                assert_eq!(oom.in_use, 2 * per_session);
            }
            other => panic!("expected OutOfMemory, got {other:?}"),
        }
        eng.close(a).unwrap();
        let (c, _) = eng.admit(&[3]).unwrap();
        eng.close(b).unwrap();
        eng.close(c).unwrap();
        assert_eq!(tracker.in_use(), 0);
    }
}
