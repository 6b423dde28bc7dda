//! Workspace-level integration tests spanning every crate: the complete
//! pipelines a downstream user of `alayadb` would run.

use std::sync::Arc;

use alayadb::attention::{DiprsAttention, FullAttention, SparseAttention, WindowSpec};
use alayadb::core::{Db, DbConfig};
use alayadb::device::memory::MemoryTracker;
use alayadb::index::flat::FlatIndex;
use alayadb::index::roargraph::{RoarGraph, RoarGraphParams};
use alayadb::llm::{AttentionBackend, FullKvBackend, Model, ModelConfig, Tokenizer};
use alayadb::query::diprs::{diprs, DiprsParams};
use alayadb::storage::{BufferManager, BufferedVectorSource, MemDevice, VectorFile};
use alayadb::vector::rng::{gaussian_store, seeded};
use alayadb::workloads::{evaluate_engine, Task, TaskKind};

/// Storage → index → query: DIPRS runs unchanged over a disk-resident KV
/// head through the buffer manager, with identical results to memory.
#[test]
fn diprs_over_vector_file_system_matches_memory() {
    let mut rng = seeded(71);
    let dim = 16;
    let keys = gaussian_store(&mut rng, 400, dim, 1.0);
    let train = gaussian_store(&mut rng, 150, dim, 1.0);
    let graph = RoarGraph::build(&keys, &train, RoarGraphParams::default()).into_graph();

    // Spill the keys into a vector file behind a tiny buffer pool.
    let mgr = BufferManager::new(8);
    let file = VectorFile::create(mgr, Arc::new(MemDevice::new(512)), dim).unwrap();
    for row in keys.iter() {
        file.append(row).unwrap();
    }
    // The graph itself round-trips through the index-block chain.
    file.write_graph(&graph.to_bytes()).unwrap();
    let loaded =
        alayadb::index::graph::NeighborGraph::from_bytes(&file.read_graph().unwrap().unwrap())
            .unwrap();
    assert_eq!(loaded, graph);

    let disk = BufferedVectorSource::new(Arc::new(file));
    let params = DiprsParams {
        beta: 2.0,
        l0: 32,
        max_visits: usize::MAX,
    };
    let q = gaussian_store(&mut rng, 1, dim, 1.0);
    let mem_res = diprs(&graph, &keys, q.row(0), &params, None);
    let disk_res = diprs(&loaded, &disk, q.row(0), &params, None);
    let mem_ids: Vec<usize> = mem_res.tokens.iter().map(|t| t.idx).collect();
    let disk_ids: Vec<usize> = disk_res.tokens.iter().map(|t| t.idx).collect();
    assert_eq!(
        mem_ids, disk_ids,
        "storage backend must not change the query answer"
    );
    assert!(
        disk.file().buffer().stats().evictions() > 0,
        "the tiny pool must have evicted"
    );
}

/// Workloads → attention: DIPRS beats fixed top-k on a task whose
/// criticality varies, at comparable quality budgets (the Figure 6 story,
/// as a pass/fail gate).
#[test]
fn diprs_engine_beats_small_topk_on_deep_task() {
    let dim = 24;
    let task = Task::new(TaskKind::EnMc, 1600, dim);
    let window = WindowSpec::new(8, 24);
    let diprs_engine = DiprsAttention {
        window,
        beta: 4.0 * (dim as f32).sqrt(),
        l0: 128,
    };
    let top50 = alayadb::attention::TopKRetrieval {
        window,
        k: 50,
        ef: 100,
    };

    let d = evaluate_engine(&diprs_engine, &task, 8, 3);
    let t = evaluate_engine(&top50, &task, 8, 3);
    let f = evaluate_engine(&FullAttention, &task, 8, 3);
    assert!(
        f.accuracy >= 87.0,
        "full attention reference: {}",
        f.accuracy
    );
    assert!(
        d.accuracy > t.accuracy,
        "DIPRS ({}) must beat Top-50 ({}) on deep-evidence tasks",
        d.accuracy,
        t.accuracy
    );
}

/// Core → device: the optimizer degrades gracefully as GPU budget shrinks
/// and sessions keep producing exact results under every plan family.
#[test]
fn plans_shift_with_gpu_budget_and_stay_correct() {
    let model_cfg = ModelConfig::tiny();
    let model = Model::new(model_cfg.clone());
    let context: Vec<u32> = (0..90u32).map(|i| (i * 11) % 250).collect();
    let question = [7u32, 8, 9];

    // Reference logits.
    let mut reference = FullKvBackend::new(&model_cfg);
    let mut full_prompt = context.to_vec();
    full_prompt.extend(question);
    let want = model.prefill(&full_prompt, 0, &mut reference);

    for (budget, expect_plan) in [(u64::MAX, "TopK"), (0u64, "DIPR")] {
        let mut db_cfg = DbConfig::for_tests(model_cfg.clone());
        db_cfg.optimizer.short_context_threshold = 32;
        db_cfg.optimizer.default_beta = 1e9; // exact sparse plans
        db_cfg.optimizer.default_k = 90; // k = whole context
        db_cfg.gpu = MemoryTracker::new(budget);
        let db = Db::new(db_cfg);

        let mut pre = FullKvBackend::new(&model_cfg);
        model.prefill(&context, 0, &mut pre);
        db.import(context.to_vec(), pre.into_cache());

        let (mut session, truncated) = db.create_session(&full_prompt);
        let got = model.prefill(&truncated, session.seq_len(0), &mut session);
        assert!(
            session
                .plan_log()
                .iter()
                .any(|p| p.explain().contains(expect_plan)),
            "budget {budget}: wanted a {expect_plan} plan, got {:?}",
            session.plan_log()
        );
        let max_err = want
            .iter()
            .zip(&got)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(
            max_err < 0.2,
            "budget {budget}: logits diverged by {max_err}"
        );
    }
}

/// The whole public surface in one pass: tokenizer → model → DB → session
/// → store → reuse → storage spill of the stored context's index.
#[test]
fn full_lifecycle_with_index_spill() {
    let model_cfg = ModelConfig::tiny();
    let model = Model::new(model_cfg.clone());
    let tok = Tokenizer::new();
    let db = Db::new(DbConfig::for_tests(model_cfg.clone()));

    // Generate and store a conversation.
    let prompt = tok.encode_prompt("the data foundation for long context inference");
    let (mut session, truncated) = db.create_session(&prompt);
    session.note_tokens(&truncated);
    let reply = model.generate(&truncated, 6, &mut session);
    session.note_tokens(&reply);
    let id = db.store(&session);
    let stored = db.context(id).unwrap();

    // Spill one head's keys + graph to the vector file system and read
    // them back (what a tiered deployment would persist).
    let head = stored.kv.head(1, 0);
    let mgr = BufferManager::new(16);
    let file = VectorFile::create(mgr, Arc::new(MemDevice::new(512)), head.keys.dim()).unwrap();
    for row in head.keys.iter() {
        file.append(row).unwrap();
    }
    if let Some(g) = stored.graph(1, 0) {
        file.write_graph(&g.to_bytes()).unwrap();
        let back =
            alayadb::index::graph::NeighborGraph::from_bytes(&file.read_graph().unwrap().unwrap())
                .unwrap();
        assert_eq!(&back, g);
    }
    let disk = BufferedVectorSource::new(Arc::new(file));

    // Flat search must agree between the stored head and its spill.
    let q = head.keys.row(0);
    let a = FlatIndex.search_topk(&head.keys, q, 5);
    let b = FlatIndex.search_topk(&disk, q, 5);
    assert_eq!(
        a.iter().map(|s| s.idx).collect::<Vec<_>>(),
        b.iter().map(|s| s.idx).collect::<Vec<_>>()
    );

    // And the stored context serves a reuse session.
    let (s2, trunc2) = db.create_session(&prompt);
    assert_eq!(s2.reused_len(), prompt.len() - 1);
    assert_eq!(trunc2.len(), 1);
}

/// The Table 2 contract driven by hand through the `alayadb` re-exports:
/// `Db::create_session → Session::update → Session::attention → Db::store`,
/// then reuse of the stored context by a follow-up session.
#[test]
fn session_update_attention_store_round_trip() {
    let model_cfg = ModelConfig::tiny();
    let db = Db::new(DbConfig::for_tests(model_cfg.clone()));
    let steps = 10usize;
    let tokens: Vec<u32> = (0..steps as u32).map(|i| i * 13 % 250).collect();

    // Fresh DB: nothing to reuse, the full prompt comes back untruncated.
    let (mut session, truncated) = db.create_session(&tokens);
    assert_eq!(truncated, tokens);
    assert_eq!(session.reused_len(), 0);

    // Drive update + attention per layer, mirroring every step into the
    // coupled-architecture reference backend.
    let mut reference = FullKvBackend::new(&model_cfg);
    let mut rng = seeded(2026);
    let dim = model_cfg.head_dim;
    for step in 0..steps {
        for layer in 0..model_cfg.n_layers {
            let queries: Vec<Vec<f32>> = (0..model_cfg.n_q_heads)
                .map(|_| alayadb::vector::rng::gaussian_vec(&mut rng, dim, 1.0))
                .collect();
            let keys: Vec<Vec<f32>> = (0..model_cfg.n_kv_heads)
                .map(|_| alayadb::vector::rng::gaussian_vec(&mut rng, dim, 1.0))
                .collect();
            let values: Vec<Vec<f32>> = (0..model_cfg.n_kv_heads)
                .map(|_| alayadb::vector::rng::gaussian_vec(&mut rng, dim, 1.0))
                .collect();

            session.update(&queries, &keys, &values, layer);
            let out = session.attention(&queries, layer);
            assert_eq!(out.len(), model_cfg.n_q_heads);

            if step == 0 {
                // One cached token: softmax weight is exactly 1, so each
                // head's output must be its KV head's value vector.
                for (qh, o) in out.iter().enumerate() {
                    let v = &values[model_cfg.kv_head_of(qh)];
                    for (a, b) in o.iter().zip(v) {
                        assert!((a - b).abs() < 1e-5, "step-0 output must be the value row");
                    }
                }
            }

            let want = reference.attend(
                layer,
                alayadb::llm::StepInput {
                    queries: queries.clone(),
                    keys,
                    values,
                },
            );
            for (o, w) in out.iter().zip(&want) {
                for (a, b) in o.iter().zip(w) {
                    assert!(
                        (a - b).abs() < 1e-4,
                        "session attention diverged from the coupled reference"
                    );
                }
            }
        }
        assert_eq!(session.seq_len(0), step + 1);
    }
    assert!(
        !session.plan_log().is_empty(),
        "attention must have logged a plan"
    );

    // Late materialization: store the session and check the stored KV is
    // byte-for-byte the session's full KV on every head.
    session.note_tokens(&tokens);
    let id = db.store(&session);
    assert_eq!(db.n_contexts(), 1);
    let stored = db.context(id).unwrap();
    assert_eq!(stored.len(), steps);
    for layer in 0..model_cfg.n_layers {
        for kvh in 0..model_cfg.n_kv_heads {
            let (keys, values) = session.full_kv(layer, kvh);
            let head = stored.kv.head(layer, kvh);
            assert_eq!(head.keys.len(), steps);
            for i in 0..steps {
                assert_eq!(head.keys.row(i), keys.row(i));
                assert_eq!(head.values.row(i), values.row(i));
            }
        }
    }

    // A follow-up prompt extending the stored conversation reuses the whole
    // stored context and only the new suffix remains to prefill.
    let mut extended = tokens.clone();
    extended.extend([251u32, 252, 253]);
    let (s2, trunc2) = db.create_session(&extended);
    assert_eq!(s2.reused_len(), steps);
    assert_eq!(trunc2, &extended[steps..]);
}

/// The same Table 2 round trip as `session_update_attention_store_round_trip`,
/// but driven *through the serving scheduler*: `ServeEngine::admit →
/// update → attention (batched, pool-executed) → store`, then reuse. The
/// serving layer must neither perturb a single output bit relative to the
/// coupled reference nor change what `store` materializes.
#[test]
fn scheduler_update_attention_store_round_trip() {
    let model_cfg = ModelConfig::tiny();
    let db = Arc::new(Db::new(DbConfig::for_tests(model_cfg.clone())));
    let engine = alayadb::serve::ServeEngine::new(Arc::clone(&db));
    let steps = 10usize;
    let tokens: Vec<u32> = (0..steps as u32).map(|i| i * 13 % 250).collect();

    // Fresh DB: nothing to reuse, the full prompt comes back untruncated.
    let (sid, truncated) = engine.admit(&tokens).unwrap();
    assert_eq!(truncated, tokens);

    // Drive update + attention per layer through the scheduler, mirroring
    // every step into the coupled-architecture reference backend and
    // remembering the K/V streams for the store check.
    let mut reference = FullKvBackend::new(&model_cfg);
    let mut rng = seeded(2026);
    let dim = model_cfg.head_dim;
    type PerHead = Vec<Vec<f32>>;
    let mut pushed: Vec<Vec<(PerHead, PerHead)>> = vec![Vec::new(); model_cfg.n_layers];
    for _step in 0..steps {
        for (layer, layer_pushed) in pushed.iter_mut().enumerate() {
            let queries: Vec<Vec<f32>> = (0..model_cfg.n_q_heads)
                .map(|_| alayadb::vector::rng::gaussian_vec(&mut rng, dim, 1.0))
                .collect();
            let keys: Vec<Vec<f32>> = (0..model_cfg.n_kv_heads)
                .map(|_| alayadb::vector::rng::gaussian_vec(&mut rng, dim, 1.0))
                .collect();
            let values: Vec<Vec<f32>> = (0..model_cfg.n_kv_heads)
                .map(|_| alayadb::vector::rng::gaussian_vec(&mut rng, dim, 1.0))
                .collect();
            layer_pushed.push((keys.clone(), values.clone()));

            engine.update(sid, &queries, &keys, &values, layer).unwrap();
            let out = engine.attention(sid, &queries, layer).unwrap();
            assert_eq!(out.len(), model_cfg.n_q_heads);

            let want = reference.attend(
                layer,
                alayadb::llm::StepInput {
                    queries: queries.clone(),
                    keys,
                    values,
                },
            );
            for (o, w) in out.iter().zip(&want) {
                for (a, b) in o.iter().zip(w) {
                    assert!(
                        (a - b).abs() < 1e-4,
                        "scheduled attention diverged from the coupled reference"
                    );
                }
            }
        }
        assert_eq!(engine.seq_len(sid, 0).unwrap(), _step + 1);
    }

    // Late materialization through the engine: the stored KV must be
    // byte-for-byte the K/V streams the session absorbed.
    engine.note_tokens(sid, &tokens).unwrap();
    let id = engine.store(sid).unwrap();
    assert_eq!(db.n_contexts(), 1);
    let stored = db.context(id).unwrap();
    assert_eq!(stored.len(), steps);
    for (layer, layer_pushed) in pushed.iter().enumerate() {
        for kvh in 0..model_cfg.n_kv_heads {
            let head = stored.kv.head(layer, kvh);
            assert_eq!(head.keys.len(), steps);
            for (i, (keys, values)) in layer_pushed.iter().enumerate() {
                assert_eq!(head.keys.row(i), &keys[kvh][..]);
                assert_eq!(head.values.row(i), &values[kvh][..]);
            }
        }
    }
    engine.close(sid).unwrap();
    assert_eq!(engine.n_sessions(), 0);
    assert!(engine.stats().requests >= (steps * model_cfg.n_layers) as u64);

    // A follow-up admission extending the stored conversation reuses the
    // whole stored context; only the new suffix remains to prefill.
    let mut extended = tokens.clone();
    extended.extend([251u32, 252, 253]);
    let (sid2, trunc2) = engine.admit(&extended).unwrap();
    let s2_len = engine.seq_len(sid2, 0).unwrap();
    assert_eq!(s2_len, steps);
    assert_eq!(trunc2, &extended[steps..]);
    engine.close(sid2).unwrap();
}

/// Memory accounting sanity across the whole stack: Table 1's ordering.
#[test]
fn gpu_memory_ordering_across_architectures() {
    let kv_per_token = 131_072u64; // Llama-3-8B
    let n = 129_000usize;
    let full = FullAttention.gpu_bytes(n, kv_per_token);
    let diprs = DiprsAttention {
        window: WindowSpec::paper_default(),
        beta: 50.0,
        l0: 64,
    }
    .gpu_bytes(n, kv_per_token);
    // Coupled/disaggregated architectures hold the full cache; AlayaDB
    // holds the window. The gap is what Figure 9's x-axis shows.
    assert!(full > 25 * diprs, "full {full} vs diprs {diprs}");
}
