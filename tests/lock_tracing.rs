//! Negative half of the lock-order contract: the system's *legal* lock
//! ordering, exercised end to end (serve → core → device → storage), must
//! run under the tracing shim without any inversion panic — and the tracer
//! must demonstrably be live, i.e. the acquisition-order graph contains the
//! edges the canonical order (documented in `alaya_core::db`) predicts.
//!
//! The positive half — an intentional inversion panics with both site
//! names and backtraces — lives in `shims/parking_lot/tests/lock_order.rs`.

#![cfg(feature = "instrumented")]

use std::sync::Arc;

use alayadb::core::{Db, DbConfig};
use alayadb::llm::{Model, ModelConfig};
use alayadb::serve::{ServeConfig, ServeEngine};

/// Drives admission, prefill, decode, background store and reuse through
/// the full stack, then asserts (a) nothing panicked — the canonical order
/// held — and (b) the tracer recorded the cross-layer edges that prove it
/// was watching.
#[test]
fn legal_lock_order_is_silent_and_traced() {
    let model_cfg = ModelConfig::tiny();
    let db = Arc::new(Db::new(DbConfig::for_tests(model_cfg.clone())));
    let model = Model::new(model_cfg);
    let eng = ServeEngine::with_options(
        Arc::clone(&db),
        ServeConfig {
            threads: 2,
            ..Default::default()
        },
    );

    // Session 1: prefill + decode through the scheduler, then store the
    // context in the background (serve.session → core.db.contexts →
    // core.db.store_state is the deepest publication chain).
    let prompt: Vec<u32> = (5..35).collect();
    let (sid, truncated) = eng.admit(&prompt).unwrap();
    eng.note_tokens(sid, &truncated).unwrap();
    let reply = {
        let mut backend = eng.backend(sid);
        model.generate(&truncated, 3, &mut backend)
    };
    eng.note_tokens(sid, &reply).unwrap();
    let ctx = eng.store(sid).unwrap();
    assert!(db.context(ctx).is_some());
    eng.close(sid).unwrap();

    // Session 2 reuses the stored context: the scheduler's context lookup
    // path (core.db.contexts held alone) and batched execution run again
    // over a non-empty store.
    let (sid2, trunc2) = eng.admit(&prompt).unwrap();
    assert!(trunc2.len() < prompt.len(), "stored context must be reused");
    {
        let mut backend = eng.backend(sid2);
        model.generate(&trunc2, 2, &mut backend);
    }
    eng.close(sid2).unwrap();
    drop(eng);

    // The one `instrumented` feature arms both halves: the failpoint
    // constants exist only when the chaos probes are compiled in.
    let failpoints = [
        alayadb::serve::scheduler::CHAOS_BATCH_DELAY,
        alayadb::device::pool::CHAOS_TASK_PANIC,
        alayadb::storage::failpoint::CHAOS_READ,
    ];
    assert!(failpoints.iter().all(|site| !site.is_empty()));

    // Reaching this point at all is the real assertion: any ordering
    // inconsistency would have panicked inside a lock() call above. Now
    // confirm the tracer actually observed the run.
    let sites = parking_lot::lock_tracing::site_names();
    for expected in [
        "serve.sessions",
        "serve.session",
        "serve.sched.queue",
        "core.db.contexts",
        "core.db.store_state",
        "device.pool.queue",
    ] {
        assert!(
            sites.iter().any(|s| s == expected),
            "site {expected:?} never registered — tracing is not live (saw {sites:?})"
        );
    }

    // The session's reservation growth lives under the session lock; it
    // has no lock of its own.
    assert!(
        !sites.iter().any(|s| s == "serve.growth"),
        "serve.growth registered: {sites:?}"
    );

    let edges = parking_lot::lock_tracing::edges();
    let has = |a: &str, b: &str| edges.iter().any(|(x, y)| x == a && y == b);
    // store_background snapshots under the session lock, then reserves the
    // id under the contexts write lock.
    assert!(
        has("serve.session", "core.db.contexts"),
        "store snapshot edge missing; edges: {edges:?}"
    );
    // ...and queues the build task on the pool under the same hold (the
    // store kickoff): serve.session → device.pool.queue.
    assert!(
        has("serve.session", "device.pool.queue"),
        "store kickoff edge missing; edges: {edges:?}"
    );
    // The scheduler releases every session lock before a batch executes:
    // no pool scope is ever waited on under one.
    assert!(
        !has("serve.session", "device.pool.scope_done"),
        "a session lock was held across pool execution; edges: {edges:?}"
    );
    // The publish task drops the contexts guard before signalling the
    // store state (see the canonical-order notes in `alaya_core::db`):
    // those two locks must never be held together, in either order.
    for (a, b) in [
        ("core.db.contexts", "core.db.store_state"),
        ("core.db.store_state", "core.db.contexts"),
    ] {
        assert!(
            !has(a, b),
            "contexts and store_state were held together ({a} -> {b})"
        );
    }
    // And the documented order must never appear reversed.
    for (a, b) in [
        ("core.db.contexts", "serve.session"),
        ("serve.session", "serve.sessions"),
    ] {
        assert!(
            !has(a, b),
            "edge {a} -> {b} contradicts the canonical lock order"
        );
    }
}
