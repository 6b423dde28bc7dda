//! Request-lifecycle telemetry acceptance: every request the scheduler
//! sees opens exactly one span and closes it exactly once, the span
//! counters reconcile with the classic [`SchedulerStats`], stage
//! histograms count what actually ran, and per-tenant lane stats
//! attribute outcomes to the right session.

use std::sync::{Arc, Barrier};
use std::time::Duration;

use alaya_core::{Db, DbConfig};
use alaya_llm::{Model, ModelConfig};
use alaya_serve::{ServeConfig, ServeEngine, ServeError};

fn tiny_engine(opts: ServeConfig) -> (ServeEngine, ModelConfig, Arc<Db>) {
    let model_cfg = ModelConfig::tiny();
    let db = Arc::new(Db::new(DbConfig::for_tests(model_cfg.clone())));
    let engine = ServeEngine::with_options(Arc::clone(&db), opts);
    (engine, model_cfg, db)
}

/// Drives requests to all three non-panic outcomes — executed, shed
/// (expired deadline), rejected (queue bound) — then checks the span
/// ledger balances: `opened == executed + shed + rejected + panicked`,
/// and each span outcome equals its `SchedulerStats` twin.
#[test]
fn every_request_closes_exactly_one_span_and_reconciles_with_stats() {
    const EXECUTED: usize = 5;
    const SHED: usize = 3;
    const CALLERS: usize = 6;
    const MAX_QUEUE: usize = 2;

    let (engine, model_cfg, db) = tiny_engine(ServeConfig {
        max_queue_requests: MAX_QUEUE,
        ..Default::default()
    });
    let queries = vec![vec![1.0; model_cfg.head_dim]; model_cfg.n_q_heads];
    let kv = vec![vec![0.5; model_cfg.head_dim]; model_cfg.n_kv_heads];

    // Phase 1 — executed: a serial session serves EXECUTED requests.
    let (sid, _) = engine.admit(&[1, 2, 3]).unwrap();
    engine.update(sid, &queries, &kv, &kv, 0).unwrap();
    for _ in 0..EXECUTED {
        engine.attention(sid, &queries, 0).unwrap();
    }

    // Lane stats attribute the executed requests to this session while
    // it is still admitted.
    let t = engine.telemetry();
    assert_eq!(t.lanes.len(), 1);
    assert_eq!(t.lanes[0].session, sid);
    assert_eq!(t.lanes[0].executed, EXECUTED as u64);
    assert_eq!(t.lanes[0].queued, 0, "quiesced lane holds nothing");

    // Phase 2 — shed: an already-expired deadline sheds deterministically.
    for _ in 0..SHED {
        match engine.attention_with_deadline(sid, queries.clone(), 0, Duration::ZERO) {
            Err(ServeError::DeadlineExceeded { .. }) => {}
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
    }
    let t = engine.telemetry();
    assert_eq!(t.lanes[0].shed_deadline, SHED as u64);
    engine.close(sid).unwrap();

    // Phase 3 — rejected: a synchronized burst into a MAX_QUEUE-slot
    // queue held open by a long dispatch window.
    let (engine2, _, db2) = tiny_engine(ServeConfig {
        dispatch_window: Duration::from_millis(300),
        max_queue_requests: MAX_QUEUE,
        ..Default::default()
    });
    let barrier = Barrier::new(CALLERS);
    let rejected: u64 = std::thread::scope(|s| {
        let mut handles = Vec::new();
        for c in 0..CALLERS {
            let engine2 = &engine2;
            let barrier = &barrier;
            let queries = &queries;
            let kv = &kv;
            handles.push(s.spawn(move || {
                let (sid, _) = engine2.admit(&[c as u32, 7, 8]).unwrap();
                engine2.update(sid, queries, kv, kv, 0).unwrap();
                barrier.wait();
                let rejected = match engine2.attention(sid, queries, 0) {
                    Ok(_) => 0u64,
                    Err(ServeError::Overloaded { .. }) => 1,
                    Err(other) => panic!("unexpected error: {other:?}"),
                };
                engine2.close(sid).unwrap();
                rejected
            }));
        }
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });
    assert!(rejected >= 1, "the burst must overflow the queue");

    // The ledger balances on both engines (telemetry is per-engine).
    for (eng, what) in [(&engine, "serial engine"), (&engine2, "burst engine")] {
        let t = eng.telemetry();
        assert_eq!(
            t.spans.opened,
            t.spans.closed(),
            "{what}: every opened span must close exactly once"
        );
        assert_eq!(t.spans.shed, t.stats.shed_deadline, "{what}");
        assert_eq!(t.spans.rejected, t.stats.rejected_overload, "{what}");
        assert_eq!(
            t.spans.executed + t.spans.panicked,
            t.stats.requests,
            "{what}: requests counts exactly the spans that reached a batch"
        );
        assert_eq!(t.spans.panicked, 0, "{what}: nothing injected a panic");
        assert_eq!(t.last_panic_dump, None, "{what}");
    }
    let t = engine.telemetry();
    assert_eq!(t.spans.executed, EXECUTED as u64);
    assert_eq!(t.spans.shed, SHED as u64);
    let t2 = engine2.telemetry();
    assert_eq!(t2.spans.rejected, rejected);
    assert_eq!(t2.spans.executed, CALLERS as u64 - rejected);

    // All sessions closed, nothing leaked, lanes empty again.
    assert_eq!(t.lanes.len() + t2.lanes.len(), 0);
    assert_eq!(db.gpu().in_use(), 0);
    assert_eq!(db2.gpu().in_use(), 0);
}

/// Stage histograms count per-request observations for exactly the spans
/// that executed, the per-batch histogram counts batches, and the
/// registry renders every serve metric to JSON and Prometheus text.
#[test]
fn stage_histograms_and_registry_rendering_track_execution() {
    const REQUESTS: usize = 8;

    let (engine, model_cfg, _db) = tiny_engine(ServeConfig::default());
    let queries = vec![vec![1.0; model_cfg.head_dim]; model_cfg.n_q_heads];
    let kv = vec![vec![0.5; model_cfg.head_dim]; model_cfg.n_kv_heads];
    let (sid, _) = engine.admit(&[4, 5, 6]).unwrap();
    engine.update(sid, &queries, &kv, &kv, 0).unwrap();
    for _ in 0..REQUESTS {
        engine.attention(sid, &queries, 0).unwrap();
    }
    engine.close(sid).unwrap();

    // A batch's wall-time observation lands *after* its replies are sent
    // (the measurement covers the whole dispatch); give the scheduler a
    // beat to fold the last batch in before snapshotting.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    let mut t = engine.telemetry();
    while t.stages.batch_exec.count < t.stats.batches && std::time::Instant::now() < deadline {
        std::thread::yield_now();
        t = engine.telemetry();
    }
    assert_eq!(t.spans.executed, REQUESTS as u64);

    // One observation per executed request in every per-request stage;
    // one per dispatched batch in the batch histogram.
    for (stage, name) in [
        (&t.stages.queue, "queue"),
        (&t.stages.plan, "plan"),
        (&t.stages.exec, "exec"),
        (&t.stages.total, "total"),
    ] {
        assert_eq!(stage.count, REQUESTS as u64, "stage {name}");
        assert!(stage.max >= stage.p50, "stage {name} is ordered");
    }
    assert_eq!(t.stages.batch_exec.count, t.stats.batches);
    // total spans the whole timeline: its tail cannot be shorter than
    // the queueing stage's tail.
    assert!(t.stages.total.max >= t.stages.queue.max);
    // Executed batches took nonzero wall time, so the EWMA moved off
    // zero.
    assert!(t.est_exec > Duration::ZERO);

    // The registry snapshot carries the serve cells and renders.
    assert_eq!(
        t.registry.counter("serve.span.executed"),
        Some(REQUESTS as u64)
    );
    assert_eq!(
        t.registry.counter("serve.sched.requests"),
        Some(REQUESTS as u64)
    );
    let json = t.registry.to_json();
    assert!(json.contains("\"serve.sched.requests\":8"), "json: {json}");
    let prom = t.registry.to_prometheus();
    assert!(
        prom.contains("serve_sched_requests 8"),
        "prometheus: {prom}"
    );
    // Pool and db metrics registered into the same per-engine registry
    // surface alongside the scheduler's (buffer-manager stats register
    // per `BufferManager`, which persistence creates on demand).
    assert!(
        t.registry.counter("device.pool.tasks_executed").is_some(),
        "pool stats must register into the engine registry"
    );
    assert!(
        t.registry.counter("core.db.sessions_created").is_some(),
        "db stats must register into the engine registry"
    );
}

/// The context cache's cells ride in the engine's registry and move on a
/// store/reuse loop: turns that extend what they stored supersede it,
/// and conversations beyond the byte budget evict the oldest.
#[test]
fn context_cache_cells_move_on_a_store_reuse_loop() {
    const CONVERSATIONS: u32 = 4;
    const TURNS: usize = 3;
    const BUDGET: u64 = 40_000;

    let model_cfg = ModelConfig::tiny();
    let model = Model::new(model_cfg.clone());
    let db = Arc::new(Db::new(DbConfig {
        context_budget_bytes: BUDGET,
        ..DbConfig::for_tests(model_cfg)
    }));
    let engine = ServeEngine::new(Arc::clone(&db));

    let t = engine.telemetry();
    for cell in [
        "core.db.contexts_superseded",
        "core.db.contexts_evicted",
        "core.db.graphs_without_queries",
    ] {
        assert_eq!(t.registry.counter(cell), Some(0), "{cell} is registered");
    }
    assert_eq!(t.registry.gauge("core.db.context_bytes"), Some(0));

    let mut largest = 0;
    for c in 0..CONVERSATIONS {
        let mut history: Vec<u32> = (0..12).map(|i| 10 * c + i).collect();
        for _ in 0..TURNS {
            let (sid, truncated) = engine.admit(&history).unwrap();
            engine.note_tokens(sid, &truncated).unwrap();
            let reply = model.generate(&truncated, 4, &mut engine.backend(sid));
            engine.note_tokens(sid, &reply).unwrap();
            let ctx = engine.store(sid).unwrap();
            engine.close(sid).unwrap();
            largest = largest.max(db.context(ctx).unwrap().bytes());
            history.extend(reply);

            // The gauge is the resident bytes, within one context of the
            // budget at every publish.
            let bytes = engine.telemetry().registry.gauge("core.db.context_bytes");
            assert!(bytes > Some(0) && bytes <= Some((BUDGET + largest) as i64));
        }
    }

    let t = engine.telemetry();
    let stores = u64::from(CONVERSATIONS) * TURNS as u64;
    assert_eq!(
        t.registry.counter("core.db.contexts_imported"),
        Some(stores)
    );
    // Every turn after a conversation's first extends its previous store.
    assert_eq!(
        t.registry.counter("core.db.contexts_superseded"),
        Some(stores - u64::from(CONVERSATIONS))
    );
    let evicted = t.registry.counter("core.db.contexts_evicted").unwrap();
    assert!(evicted >= 1, "four conversations do not fit {BUDGET} bytes");
    assert_eq!(
        db.n_contexts() as u64 + evicted,
        u64::from(CONVERSATIONS),
        "one resident context per conversation, minus the evicted"
    );
    assert_eq!(
        t.registry.gauge("core.db.context_bytes"),
        Some(db.stats().context_bytes() as i64)
    );
    // Every publication was a served store with sampled queries.
    assert_eq!(
        t.registry.counter("core.db.graphs_without_queries"),
        Some(0)
    );
}

/// Telemetry is engine-scoped: traffic on one engine must not appear in
/// another engine's span ledger.
#[test]
fn engines_do_not_alias_each_others_spans() {
    let (busy, model_cfg, _db1) = tiny_engine(ServeConfig::default());
    let (idle, _, _db2) = tiny_engine(ServeConfig::default());

    let queries = vec![vec![1.0; model_cfg.head_dim]; model_cfg.n_q_heads];
    let kv = vec![vec![0.5; model_cfg.head_dim]; model_cfg.n_kv_heads];
    let (sid, _) = busy.admit(&[9, 9, 9]).unwrap();
    busy.update(sid, &queries, &kv, &kv, 0).unwrap();
    busy.attention(sid, &queries, 0).unwrap();
    busy.close(sid).unwrap();

    assert_eq!(busy.telemetry().spans.opened, 1);
    assert_eq!(idle.telemetry().spans.opened, 0);
    assert_eq!(idle.telemetry().stats.requests, 0);
}
