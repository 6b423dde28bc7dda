//! Concurrency stress tests for the serving subsystem.
//!
//! The contract under test: scheduling, batching, and work-stealing
//! execution may change *where and when* attention runs, but never *what*
//! it computes — outputs must be bitwise-identical to the sequential
//! single-caller path — and admission control must fail closed with a
//! typed error, never a panic.

use std::sync::{Arc, Barrier};
use std::time::Duration;

use alaya_core::{Db, DbConfig};
use alaya_device::memory::MemoryTracker;
use alaya_llm::{FullKvBackend, Model, ModelConfig};
use alaya_serve::{ServeConfig, ServeEngine, ServeError};
use alaya_vector::rng::{gaussian_vec, seeded};

/// Builds a DB holding one stored context every test session reuses.
fn db_with_context(model_cfg: &ModelConfig, tokens: &[u32]) -> Arc<Db> {
    db_with_config_and_context(DbConfig::for_tests(model_cfg.clone()), tokens)
}

fn db_with_config_and_context(cfg: DbConfig, tokens: &[u32]) -> Arc<Db> {
    let model = Model::new(cfg.model.clone());
    let mut backend = FullKvBackend::new(&cfg.model);
    model.prefill(tokens, 0, &mut backend);
    let db = Db::new(cfg);
    db.import(tokens.to_vec(), backend.into_cache());
    Arc::new(db)
}

/// ≥8 threads × ≥8 sessions over one shared stored context: every engine
/// session's scheduled outputs must equal (bit for bit) a twin session
/// driven sequentially through `Session::attention_sequential`.
#[test]
fn concurrent_serving_is_bitwise_identical_to_sequential() {
    const THREADS: usize = 8;
    const STEPS: usize = 6;

    let model_cfg = ModelConfig::tiny();
    let context: Vec<u32> = (0..60u32).map(|i| (i * 7) % 250).collect();
    let db = db_with_context(&model_cfg, &context);
    let engine = ServeEngine::new(Arc::clone(&db));

    // All sessions open over the same prompt, so all reuse the same stored
    // context with the same prefix — the scheduler's best case.
    let mut extended = context.clone();
    extended.extend([201u32, 202, 203]);

    std::thread::scope(|s| {
        for t in 0..THREADS {
            let engine = &engine;
            let db = &db;
            let model_cfg = &model_cfg;
            let prompt = &extended;
            s.spawn(move || {
                let (sid, truncated) = engine.admit(prompt).expect("admission");
                let (mut reference, ref_truncated) = db.create_session(prompt);
                assert_eq!(truncated, ref_truncated);
                assert_eq!(reference.reused_len(), prompt.len() - 3);

                // Identical per-thread RNG streams drive both twins.
                let mut rng = seeded(1000 + t as u64);
                let dim = model_cfg.head_dim;
                for _step in 0..STEPS {
                    for layer in 0..model_cfg.n_layers {
                        let queries: Vec<Vec<f32>> = (0..model_cfg.n_q_heads)
                            .map(|_| gaussian_vec(&mut rng, dim, 1.0))
                            .collect();
                        let keys: Vec<Vec<f32>> = (0..model_cfg.n_kv_heads)
                            .map(|_| gaussian_vec(&mut rng, dim, 1.0))
                            .collect();
                        let values: Vec<Vec<f32>> = (0..model_cfg.n_kv_heads)
                            .map(|_| gaussian_vec(&mut rng, dim, 1.0))
                            .collect();

                        engine.update(sid, &queries, &keys, &values, layer).unwrap();
                        let served = engine.attention(sid, &queries, layer).unwrap();

                        reference.update(&queries, &keys, &values, layer);
                        let want = reference.attention_sequential(&queries, layer);

                        // Bitwise, not approximate: scheduling must not
                        // change a single ULP.
                        assert_eq!(served, want, "thread {t} layer {layer} diverged");
                    }
                }
                engine.close(sid).unwrap();
            });
        }
    });

    let stats = engine.stats();
    assert_eq!(
        stats.requests as usize,
        THREADS * STEPS * model_cfg.n_layers,
        "every request must have been executed"
    );
    assert!(stats.batches >= 1);
    assert!(stats.plans_computed <= stats.requests);
    assert_eq!(engine.n_sessions(), 0, "all sessions closed");
    assert_eq!(db.gpu().in_use(), 0, "all admission reservations released");
}

/// Sessions with *different* prompts (some reuse the stored context, some
/// don't) still serve correct, bitwise-identical outputs concurrently.
#[test]
fn mixed_reuse_sessions_serve_concurrently() {
    const THREADS: usize = 8;
    const STEPS: usize = 4;

    let model_cfg = ModelConfig::tiny();
    let context: Vec<u32> = (0..50u32).collect();
    let db = db_with_context(&model_cfg, &context);
    let engine = ServeEngine::new(Arc::clone(&db));

    std::thread::scope(|s| {
        for t in 0..THREADS {
            let engine = &engine;
            let db = &db;
            let model_cfg = &model_cfg;
            let context = &context;
            s.spawn(move || {
                // Even threads reuse the stored context (partial prefix),
                // odd threads start cold.
                let prompt: Vec<u32> = if t % 2 == 0 {
                    let mut p = context[..30].to_vec();
                    p.extend([240 + t as u32, 241]);
                    p
                } else {
                    vec![100 + t as u32, 3, 5, 7]
                };
                let (sid, _) = engine.admit(&prompt).expect("admission");
                let (mut reference, _) = db.create_session(&prompt);

                let mut rng = seeded(77 + t as u64);
                for _ in 0..STEPS {
                    for layer in 0..model_cfg.n_layers {
                        let queries: Vec<Vec<f32>> = (0..model_cfg.n_q_heads)
                            .map(|_| gaussian_vec(&mut rng, model_cfg.head_dim, 1.0))
                            .collect();
                        let keys: Vec<Vec<f32>> = (0..model_cfg.n_kv_heads)
                            .map(|_| gaussian_vec(&mut rng, model_cfg.head_dim, 1.0))
                            .collect();
                        let values: Vec<Vec<f32>> = (0..model_cfg.n_kv_heads)
                            .map(|_| gaussian_vec(&mut rng, model_cfg.head_dim, 1.0))
                            .collect();
                        engine.update(sid, &queries, &keys, &values, layer).unwrap();
                        let served = engine.attention(sid, &queries, layer).unwrap();
                        reference.update(&queries, &keys, &values, layer);
                        let want = reference.attention_sequential(&queries, layer);
                        assert_eq!(served, want, "thread {t} diverged");
                    }
                }
                engine.close(sid).unwrap();
            });
        }
    });
    assert_eq!(engine.n_sessions(), 0);
}

/// Admission control fails closed: once the device budget is exhausted the
/// engine returns `ServeError::OutOfMemory` (it does not panic), and
/// closing a session frees its reservation for the next admission.
#[test]
fn admission_control_returns_out_of_memory() {
    let model_cfg = ModelConfig::tiny();
    let max_local_tokens = 32usize;
    let mut cfg = DbConfig::for_tests(model_cfg.clone());
    let per_session = alaya_serve::admission::session_bytes(&cfg, max_local_tokens);
    // Budget for exactly two sessions (plus slack smaller than a third).
    cfg.gpu = MemoryTracker::new(2 * per_session + per_session / 2);
    let db = Arc::new(Db::new(cfg));
    let engine = ServeEngine::with_options(
        Arc::clone(&db),
        ServeConfig {
            max_local_tokens,
            ..Default::default()
        },
    );

    let prompt: Vec<u32> = (0..10).collect();
    let (a, _) = engine.admit(&prompt).expect("first admission fits");
    let (_b, _) = engine.admit(&prompt).expect("second admission fits");
    match engine.admit(&prompt) {
        Err(ServeError::OutOfMemory(oom)) => {
            assert_eq!(oom.requested, per_session);
            assert_eq!(oom.in_use, 2 * per_session);
            assert_eq!(oom.budget, 2 * per_session + per_session / 2);
        }
        other => panic!("expected OutOfMemory, got {other:?}"),
    }

    // Rejected admission must not leak budget; closing a session frees one
    // slot and the next admission succeeds.
    assert_eq!(db.gpu().in_use(), 2 * per_session);
    engine.close(a).unwrap();
    let (c, _) = engine.admit(&prompt).expect("slot freed by close");
    engine.close(c).unwrap();
}

/// A large `store()` runs on the shared pool and publishes copy-on-write:
/// co-batched tenants keep serving (bitwise-identical) attention while the
/// index builds, and `Db::context` never answers with a partially built
/// context — the new id is invisible until the KV merge, coarse indexes and
/// graphs are all in place, then appears complete in one step.
#[test]
fn store_while_serving_publishes_atomically_and_never_blocks_attention() {
    const STEPS: usize = 12;

    let model_cfg = ModelConfig::tiny();
    let context: Vec<u32> = (0..500u32).map(|i| (i * 13) % 251).collect();
    let db = db_with_context(&model_cfg, &context);
    let engine = ServeEngine::new(Arc::clone(&db));
    let dim = model_cfg.head_dim;

    let mut prompt = context.clone();
    prompt.extend([201u32, 202, 203]);

    // The storing session reuses the stored context, decodes the truncated
    // tail, and then snapshots into a background store.
    let (store_sid, truncated) = engine.admit(&prompt).expect("admission");
    engine.note_tokens(store_sid, &truncated).unwrap();
    let mut rng = seeded(42);
    for _ in 0..truncated.len() {
        for layer in 0..model_cfg.n_layers {
            let queries: Vec<Vec<f32>> = (0..model_cfg.n_q_heads)
                .map(|_| gaussian_vec(&mut rng, dim, 1.0))
                .collect();
            let keys: Vec<Vec<f32>> = (0..model_cfg.n_kv_heads)
                .map(|_| gaussian_vec(&mut rng, dim, 1.0))
                .collect();
            let values: Vec<Vec<f32>> = (0..model_cfg.n_kv_heads)
                .map(|_| gaussian_vec(&mut rng, dim, 1.0))
                .collect();
            engine
                .update(store_sid, &queries, &keys, &values, layer)
                .unwrap();
            engine.attention(store_sid, &queries, layer).unwrap();
        }
    }

    // Admit the co-tenant *before* kicking off the store so its first
    // request races the build, then start the background build.
    let (tenant_sid, _) = engine.admit(&prompt).expect("tenant admission");
    let handle = engine.store_background(store_sid).expect("store kickoff");
    let expected_len = prompt.len();
    let flat_layers = db.config().optimizer.flat_layers;

    let served_during_build = std::thread::scope(|s| {
        // Reader thread: whenever the in-flight id becomes visible, it must
        // already be the *complete* context.
        let poller = s.spawn(|| loop {
            if let Some(ctx) = db.context(handle.id()) {
                assert_eq!(ctx.len(), expected_len, "published context incomplete");
                for layer in 0..model_cfg.n_layers {
                    for h in 0..model_cfg.n_kv_heads {
                        assert_eq!(
                            ctx.coarse(layer, h).n_tokens(),
                            expected_len,
                            "coarse index for layer {layer} head {h} incomplete"
                        );
                        match ctx.graph(layer, h) {
                            Some(g) => {
                                assert!(layer >= flat_layers, "graph on flat layer {layer}");
                                assert_eq!(g.len(), expected_len, "graph incomplete");
                            }
                            None => assert!(layer < flat_layers, "missing graph on {layer}"),
                        }
                    }
                }
            }
            if handle.is_finished() {
                break;
            }
            std::thread::yield_now();
        });

        // Co-batched tenant decodes while the store builds; outputs must
        // still be bitwise-identical to a sequential twin.
        let tenant = s.spawn(|| {
            let (mut reference, _) = db.create_session(&prompt);
            let mut rng = seeded(7);
            let mut served_while_building = 0usize;
            for _step in 0..STEPS {
                for layer in 0..model_cfg.n_layers {
                    let queries: Vec<Vec<f32>> = (0..model_cfg.n_q_heads)
                        .map(|_| gaussian_vec(&mut rng, dim, 1.0))
                        .collect();
                    let keys: Vec<Vec<f32>> = (0..model_cfg.n_kv_heads)
                        .map(|_| gaussian_vec(&mut rng, dim, 1.0))
                        .collect();
                    let values: Vec<Vec<f32>> = (0..model_cfg.n_kv_heads)
                        .map(|_| gaussian_vec(&mut rng, dim, 1.0))
                        .collect();
                    engine
                        .update(tenant_sid, &queries, &keys, &values, layer)
                        .unwrap();
                    let served = engine.attention(tenant_sid, &queries, layer).unwrap();
                    if !handle.is_finished() {
                        served_while_building += 1;
                    }
                    reference.update(&queries, &keys, &values, layer);
                    let want = reference.attention_sequential(&queries, layer);
                    assert_eq!(
                        served, want,
                        "tenant diverged during store at layer {layer}"
                    );
                }
            }
            served_while_building
        });

        poller.join().unwrap();
        tenant.join().unwrap()
    });
    assert!(
        served_during_build > 0,
        "co-tenant attention must complete while store() is still building"
    );

    let id = handle.wait().expect("background store succeeds");
    assert_eq!(id, handle.id());
    let ctx = db.context(id).expect("context published after wait");
    assert_eq!(ctx.len(), expected_len);

    // The published context is immediately reusable: a new session over the
    // same prompt now matches the longer stored prefix.
    let (reuse, reuse_truncated) = db.create_session(&prompt);
    assert_eq!(reuse.reused_len(), prompt.len() - 1);
    assert_eq!(reuse_truncated.len(), 1);

    engine.close(tenant_sid).unwrap();
    engine.close(store_sid).unwrap();
}

/// Stored contexts are a bounded cache, and eviction must be invisible to
/// whoever is already being served: a session whose base context leaves
/// the table mid-decode (a tiny budget, other sessions storing) keeps
/// serving bit for bit what `Session::attention_sequential` computes, its
/// own background store racing the eviction still builds on the evicted
/// prefix and publishes, and nothing leaks.
#[test]
fn session_keeps_serving_bitwise_after_its_base_is_evicted() {
    const STEPS_PER_PHASE: usize = 3;
    const STORING_SESSIONS: u32 = 3;

    let model_cfg = ModelConfig::tiny();
    let model = Model::new(model_cfg.clone());
    let context: Vec<u32> = (0..80u32).map(|i| (i * 11) % 199).collect();
    // Room for one and a half such contexts: the base cannot stay beside
    // the first unrelated store, nor three unrelated stores beside each
    // other.
    let one = db_with_context(&model_cfg, &context);
    let budget = one.context(alaya_core::ContextId(0)).unwrap().bytes() * 3 / 2;
    let db = db_with_config_and_context(
        DbConfig {
            context_budget_bytes: budget,
            ..DbConfig::for_tests(model_cfg.clone())
        },
        &context,
    );
    let base_id = alaya_core::ContextId(0);
    let engine = ServeEngine::new(Arc::clone(&db));

    let mut prompt = context.clone();
    prompt.extend([201u32, 202, 203]);
    let (sid, truncated) = engine.admit(&prompt).expect("admission");
    let (mut reference, _) = db.create_session(&prompt);
    assert_eq!(reference.base().unwrap().id, base_id);
    assert!(
        reference.plan(1).explain().contains("on Coarse"),
        "the session must be reading the base's indexes, not only its KV"
    );

    // One token through every layer, served and sequential side by side.
    let mut rng = seeded(17);
    let dim = model_cfg.head_dim;
    let mut step = |token: u32, reference: &mut alaya_core::Session| {
        engine.note_tokens(sid, &[token]).unwrap();
        for layer in 0..model_cfg.n_layers {
            let mut draw = |n: usize| -> Vec<Vec<f32>> {
                (0..n).map(|_| gaussian_vec(&mut rng, dim, 1.0)).collect()
            };
            let queries = draw(model_cfg.n_q_heads);
            let keys = draw(model_cfg.n_kv_heads);
            let values = draw(model_cfg.n_kv_heads);
            engine.update(sid, &queries, &keys, &values, layer).unwrap();
            let served = engine.attention(sid, &queries, layer).unwrap();
            reference.update(&queries, &keys, &values, layer);
            let want = reference.attention_sequential(&queries, layer);
            assert_eq!(served, want, "diverged at layer {layer}");
        }
    };

    // Phase 1: the base is resident.
    for &t in &truncated {
        step(t, &mut reference);
    }
    assert!(db.context(base_id).is_some());

    // Phase 2: other sessions store unrelated contexts, pushing the base
    // out, while this session kicks off its own store and keeps decoding.
    let handle = std::thread::scope(|s| {
        let storers = s.spawn(|| {
            for c in 0..STORING_SESSIONS {
                let other: Vec<u32> = (0..80u32).map(|i| 200 + c + (i * 7) % 50).collect();
                let (osid, otrunc) = engine.admit(&other).expect("admission");
                engine.note_tokens(osid, &otrunc).unwrap();
                model.prefill(&otrunc, 0, &mut engine.backend(osid));
                engine.store(osid).expect("unrelated store");
                engine.close(osid).unwrap();
            }
        });
        let handle = engine.store_background(sid).expect("store kickoff");
        for i in 0..STEPS_PER_PHASE {
            step(210 + i as u32, &mut reference);
        }
        storers.join().unwrap();
        handle
    });

    // The store that raced the eviction built on the prefix its snapshot
    // held and published a whole context (which may itself be gone again).
    let id = handle.wait().expect("store over an evicted base publishes");
    if let Some(ctx) = db.context(id) {
        assert_eq!(ctx.tokens, prompt);
    }

    // Evicted by the other stores or superseded by this session's own:
    // either way the base's id no longer resolves, and the session does
    // not care. The unrelated contexts alone overflow the budget.
    assert!(db.context(base_id).is_none(), "the base left the table");
    let stats = db.stats();
    assert!(stats.contexts_evicted() >= 1);
    assert_eq!(stats.store_failures(), 0);
    assert!(stats.context_bytes() <= budget || db.n_contexts() == 1);

    // Phase 3: the base is certainly gone; decode on.
    for i in 0..STEPS_PER_PHASE {
        step(220 + i as u32, &mut reference);
    }

    engine.close(sid).unwrap();
    assert_eq!(engine.n_sessions(), 0);
    assert_eq!(db.gpu().in_use(), 0, "eviction must not leak reservations");
}

/// Deadline shedding releases everything: a request shed with
/// `DeadlineExceeded` gets a typed retryable error, the shed is counted,
/// and closing the session returns the tracker to baseline — the
/// scheduler must not keep the session slot (and its reservation) alive
/// past the shed reply.
#[test]
fn deadline_shed_is_typed_retryable_and_releases_reservations() {
    let model_cfg = ModelConfig::tiny();
    let db = Arc::new(Db::new(DbConfig::for_tests(model_cfg.clone())));
    // A zero default deadline expires the moment the scheduler looks:
    // every attention is shed, deterministically.
    let engine = ServeEngine::with_options(
        Arc::clone(&db),
        ServeConfig {
            default_deadline: Some(Duration::ZERO),
            ..Default::default()
        },
    );

    let (sid, _) = engine.admit(&[1, 2, 3]).unwrap();
    let queries = vec![vec![1.0; model_cfg.head_dim]; model_cfg.n_q_heads];
    let kv = vec![vec![0.5; model_cfg.head_dim]; model_cfg.n_kv_heads];
    engine.update(sid, &queries, &kv, &kv, 0).unwrap();

    for _ in 0..3 {
        match engine.attention(sid, &queries, 0) {
            Err(e @ ServeError::DeadlineExceeded { .. }) => {
                assert!(e.is_retryable(), "shedding is transient");
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
    }
    assert!(engine.stats().shed_deadline >= 3);
    assert_eq!(engine.stats().requests, 0, "shed requests never execute");

    // A per-request deadline overrides the hopeless default and serves.
    let out = engine
        .attention_with_deadline(sid, queries.clone(), 0, Duration::from_secs(60))
        .unwrap();
    assert_eq!(out.len(), model_cfg.n_q_heads);

    engine.close(sid).unwrap();
    assert_eq!(
        db.gpu().in_use(),
        0,
        "shed paths must not leak reservations"
    );
}

/// Bounded queue under a synchronized burst: with the dispatch window
/// holding a batch open and the queue capped below the offered
/// concurrency, some submissions are rejected with a typed `Overloaded`
/// (never a panic, never silent growth), the rest serve normally, and no
/// reservation leaks either way.
#[test]
fn overloaded_queue_rejects_typed_and_leaks_nothing() {
    const CALLERS: usize = 6;
    const MAX_QUEUE: usize = 2;

    let model_cfg = ModelConfig::tiny();
    let db = Arc::new(Db::new(DbConfig::for_tests(model_cfg.clone())));
    let engine = ServeEngine::with_options(
        Arc::clone(&db),
        ServeConfig {
            // Long linger: the first arrivals sit in the queue while the
            // rest of the burst slams into the cap.
            dispatch_window: Duration::from_millis(300),
            max_queue_requests: MAX_QUEUE,
            ..Default::default()
        },
    );

    let barrier = Barrier::new(CALLERS);
    let (oks, overloaded) = std::thread::scope(|s| {
        let mut handles = Vec::new();
        for t in 0..CALLERS {
            let engine = &engine;
            let barrier = &barrier;
            let model_cfg = &model_cfg;
            handles.push(s.spawn(move || {
                let (sid, _) = engine.admit(&[t as u32, 1, 2]).unwrap();
                let queries = vec![vec![1.0; model_cfg.head_dim]; model_cfg.n_q_heads];
                let kv = vec![vec![0.5; model_cfg.head_dim]; model_cfg.n_kv_heads];
                engine.update(sid, &queries, &kv, &kv, 0).unwrap();
                barrier.wait();
                let verdict = match engine.attention(sid, &queries, 0) {
                    Ok(out) => {
                        assert_eq!(out.len(), model_cfg.n_q_heads);
                        (1u32, 0u32)
                    }
                    Err(ServeError::Overloaded {
                        queued_requests,
                        retry_after_hint,
                        ..
                    }) => {
                        assert!(queued_requests >= MAX_QUEUE);
                        assert!(retry_after_hint > Duration::ZERO);
                        (0, 1)
                    }
                    Err(other) => panic!("unexpected error: {other:?}"),
                };
                engine.close(sid).unwrap();
                verdict
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .fold((0u32, 0u32), |(a, b), (x, y)| (a + x, b + y))
    });

    assert_eq!(oks + overloaded, CALLERS as u32, "exactly one reply each");
    assert!(oks >= 1, "queued requests must still serve");
    assert!(
        overloaded >= 1,
        "a {CALLERS}-wide burst into a {MAX_QUEUE}-slot queue must reject"
    );
    assert_eq!(engine.stats().rejected_overload, overloaded as u64);
    assert_eq!(
        db.gpu().in_use(),
        0,
        "rejections must not leak reservations"
    );
}

/// Closing a session while its attention request is still queued: the
/// in-flight request executes correctly off the scheduler's own slot
/// reference, and the reservation is fully released once the reply lands
/// — no use-after-close, no leak.
#[test]
fn close_mid_flight_serves_the_request_and_releases_the_reservation() {
    let model_cfg = ModelConfig::tiny();
    let db = Arc::new(Db::new(DbConfig::for_tests(model_cfg.clone())));
    let engine = ServeEngine::with_options(
        Arc::clone(&db),
        ServeConfig {
            // Linger long enough for the close below to land while the
            // request is still queued.
            dispatch_window: Duration::from_millis(100),
            ..Default::default()
        },
    );

    let prompt = [9u32, 8, 7];
    let (sid, _) = engine.admit(&prompt).unwrap();
    let queries = vec![vec![1.0; model_cfg.head_dim]; model_cfg.n_q_heads];
    let kv = vec![vec![0.5; model_cfg.head_dim]; model_cfg.n_kv_heads];
    engine.update(sid, &queries, &kv, &kv, 0).unwrap();

    let (mut reference, _) = db.create_session(&prompt);
    reference.update(&queries, &kv, &kv, 0);
    let want = reference.attention_sequential(&queries, 0);

    let served = std::thread::scope(|s| {
        let engine = &engine;
        let q = queries.clone();
        let caller = s.spawn(move || engine.attention_owned(sid, q, 0));
        // Close while the request lingers in the dispatch window.
        std::thread::sleep(Duration::from_millis(20));
        engine.close(sid).unwrap();
        caller.join().unwrap()
    });
    assert_eq!(served.unwrap(), want, "mid-flight close must not corrupt");
    assert_eq!(engine.n_sessions(), 0);
    assert_eq!(
        db.gpu().in_use(),
        0,
        "reply landed => scheduler dropped the slot => reservation home"
    );
}

/// Admitted-but-rejected callers racing from many threads: the tracker
/// never overshoots and every failure is a typed error.
#[test]
fn concurrent_admission_never_overshoots() {
    let model_cfg = ModelConfig::tiny();
    let max_local_tokens = 16usize;
    let mut cfg = DbConfig::for_tests(model_cfg.clone());
    let per_session = alaya_serve::admission::session_bytes(&cfg, max_local_tokens);
    cfg.gpu = MemoryTracker::new(3 * per_session);
    let db = Arc::new(Db::new(cfg));
    let engine = ServeEngine::with_options(
        Arc::clone(&db),
        ServeConfig {
            max_local_tokens,
            ..Default::default()
        },
    );

    let prompt: Vec<u32> = (0..8).collect();
    std::thread::scope(|s| {
        for _ in 0..8 {
            let engine = &engine;
            let db = &db;
            let prompt = &prompt;
            s.spawn(move || {
                for _ in 0..20 {
                    match engine.admit(prompt) {
                        Ok((sid, _)) => {
                            assert!(db.gpu().in_use() <= db.gpu().budget());
                            engine.close(sid).unwrap();
                        }
                        Err(ServeError::OutOfMemory(_)) => {}
                        Err(e) => panic!("unexpected error: {e}"),
                    }
                }
            });
        }
    });
    assert_eq!(db.gpu().in_use(), 0);
}
