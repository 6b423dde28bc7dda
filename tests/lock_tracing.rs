//! Negative half of the lock-order contract: the system's *legal* lock
//! ordering, exercised end to end (serve → core → device), must
//! run under the tracing shim without any inversion panic — and the tracer
//! must demonstrably be live (every site registered, the pool's own nested
//! acquisition recorded), and the graph must show the leaves the lock order
//! documented in `alaya_core::db` claims: no edge out of `serve.session`
//! or `core.db.contexts`.
//!
//! The positive half — an intentional inversion panics with both site
//! names and backtraces — lives in `shims/parking_lot/tests/lock_order.rs`.

#![cfg(feature = "instrumented")]

use std::sync::Arc;

use alayadb::core::{Db, DbConfig};
use alayadb::llm::{Model, ModelConfig};
use alayadb::serve::{ServeConfig, ServeEngine};

/// Drives admission, prefill, decode, store and reuse through the full
/// stack, then asserts (a) nothing panicked — no order was inverted — (b)
/// the tracer was watching, and (c) the session and contexts locks stayed
/// leaves.
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
    // context on this thread (the session lock is released before the
    // build takes `core.db.contexts` and fans out on the pool).
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
        "device.pool.queue",
        "device.pool.idle",
    ] {
        assert!(
            sites.iter().any(|s| s == expected),
            "site {expected:?} never registered — tracing is not live (saw {sites:?})"
        );
    }

    // Reservation growth lives under the session lock, and a store waits
    // on its own thread: neither has a lock of its own.
    for gone in ["serve.growth", "core.db.store_state"] {
        assert!(
            !sites.iter().any(|s| s == gone),
            "{gone} registered: {sites:?}"
        );
    }

    let mut edges = parking_lot::lock_tracing::edges();
    // Printed sorted, so comparing two builds' edge sets is a diff of
    // their `--nocapture` output.
    edges.sort();
    eprintln!("lock-order edges: {edges:?}");
    // A parking pool worker re-checks the queues under its idle lock: the
    // one nesting the run must show.
    assert!(
        edges
            .iter()
            .any(|(a, b)| a == "device.pool.idle" && b == "device.pool.queue"),
        "edge tracing is not live; edges: {edges:?}"
    );
    // The scheduler plans and snapshots under a session lock, and `store`
    // clones under it, and both release it before anything else is locked.
    // Publication and lookup take the contexts lock alone.
    for leaf in ["serve.session", "core.db.contexts"] {
        assert!(
            !edges.iter().any(|(a, _)| a == leaf),
            "an edge leaves {leaf}; edges: {edges:?}"
        );
    }
}
