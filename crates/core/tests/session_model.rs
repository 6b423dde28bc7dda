//! End-to-end integration of the transformer substrate with AlayaDB
//! sessions — the Figure 4 contract: swapping the in-process KV cache for a
//! `Session` must preserve (full-attention plans) or approximate (sparse
//! plans) the model's behaviour.

use alaya_core::{Db, DbConfig};
use alaya_llm::{AttentionBackend, FullKvBackend, Model, ModelConfig, Tokenizer};

fn close(a: &[f32], b: &[f32], tol: f32) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| (x - y).abs() < tol)
}

/// With the short-context rule active (full-attention plan), a fresh
/// Session must reproduce the coupled-architecture backend bit-for-bit
/// token choices.
#[test]
fn session_full_plan_matches_coupled_backend() {
    let model_cfg = ModelConfig::tiny();
    let model = Model::new(model_cfg.clone());
    let mut db_cfg = DbConfig::for_tests(model_cfg.clone());
    db_cfg.optimizer.short_context_threshold = 1_000_000; // always full attention
    let db = Db::new(db_cfg);

    let prompt = Tokenizer::new().encode_prompt("the quick brown fox jumps over the lazy dog");

    let mut full = FullKvBackend::new(&model_cfg);
    let out_full = model.generate(&prompt, 12, &mut full);

    let (mut session, truncated) = db.create_session(&prompt);
    assert_eq!(truncated, prompt, "empty DB reuses nothing");
    let out_session = model.generate(&truncated, 12, &mut session);

    assert_eq!(
        out_full, out_session,
        "full-attention session must match the coupled backend"
    );
}

/// Reusing a stored context must continue generation identically to
/// recomputing the whole prefix (full-attention plans).
#[test]
fn context_reuse_preserves_generation() {
    let model_cfg = ModelConfig::tiny();
    let model = Model::new(model_cfg.clone());
    let mut db_cfg = DbConfig::for_tests(model_cfg.clone());
    db_cfg.optimizer.short_context_threshold = 1_000_000;
    let db = Db::new(db_cfg);

    let tok = Tokenizer::new();
    let book = tok.encode_prompt("contexts are reused across sessions in alayadb");
    let question = tok.encode("q1");

    // Reference: prefill book+question from scratch.
    let mut reference = FullKvBackend::new(&model_cfg);
    let mut full_prompt = book.clone();
    full_prompt.extend(&question);
    let want = model.generate(&full_prompt, 8, &mut reference);

    // Import the book's KV, then open a session over book+question.
    let mut pre = FullKvBackend::new(&model_cfg);
    model.prefill(&book, 0, &mut pre);
    db.import(book.clone(), pre.into_cache());

    let (mut session, truncated) = db.create_session(&full_prompt);
    assert_eq!(session.reused_len(), book.len());
    assert_eq!(truncated, question);
    let got = model.generate(&truncated, 8, &mut session);

    assert_eq!(
        want, got,
        "reused-context generation must match recomputation"
    );
}

/// Sparse plans activate on long contexts and still agree with full
/// attention at every sampled logit position (random-weight transformer +
/// planted structure keeps distributions diffuse, so compare outputs, not
/// argmax chains).
#[test]
fn sparse_session_approximates_full_attention() {
    let model_cfg = ModelConfig::tiny();
    let model = Model::new(model_cfg.clone());
    // Sparse threshold low: stored context (100 tokens) exceeds it. GPU
    // budget zero → DIPR plans.
    let mut db_cfg = DbConfig::for_tests(model_cfg.clone());
    db_cfg.optimizer.short_context_threshold = 32;
    db_cfg.optimizer.default_beta = 1e9; // infinite band → sparse == full
    db_cfg.gpu = alaya_device::memory::MemoryTracker::new(0);
    let db = Db::new(db_cfg);

    let context: Vec<u32> = (0..100u32).map(|i| (i * 7) % 250).collect();
    let mut prompt = context.clone();
    prompt.extend([3, 1, 4]);

    let mut reference = FullKvBackend::new(&model_cfg);
    let ref_logits = model.prefill(&prompt, 0, &mut reference);

    let mut pre = FullKvBackend::new(&model_cfg);
    model.prefill(&context, 0, &mut pre);
    db.import(context.clone(), pre.into_cache());

    let (mut session, truncated) = db.create_session(&prompt);
    assert_eq!(session.reused_len(), 100);
    let got_logits = model.prefill(&truncated, session.seq_len(0), &mut session);

    // β = ∞ makes DIPR exact modulo graph recall; logits should be close.
    let mut max_err = 0.0f32;
    for (a, b) in ref_logits.iter().zip(&got_logits) {
        max_err = max_err.max((a - b).abs());
    }
    assert!(max_err < 0.15, "sparse logits diverged: max err {max_err}");
    // A sparse plan must actually have been chosen.
    assert!(
        session
            .plan_log()
            .iter()
            .any(|p| p.explain().contains("DIPR")),
        "expected a DIPR plan, log: {:?}",
        session.plan_log()
    );
}

/// Partial prefix reuse: a session over a *prefix* of a stored context plus
/// a divergent suffix must use filtered plans and still track the
/// recomputation reference.
#[test]
fn partial_reuse_with_attribute_filtering() {
    let model_cfg = ModelConfig::tiny();
    let model = Model::new(model_cfg.clone());
    let mut db_cfg = DbConfig::for_tests(model_cfg.clone());
    db_cfg.optimizer.short_context_threshold = 32;
    db_cfg.optimizer.default_beta = 1e9;
    db_cfg.gpu = alaya_device::memory::MemoryTracker::new(0);
    let db = Db::new(db_cfg);

    // Store a long context (book + user A's conversation).
    let stored: Vec<u32> = (0..120u32).map(|i| (i * 3) % 240).collect();
    let mut pre = FullKvBackend::new(&model_cfg);
    model.prefill(&stored, 0, &mut pre);
    db.import(stored.clone(), pre.into_cache());

    // User B shares only the first 80 tokens (the book), then diverges.
    let mut prompt: Vec<u32> = stored[..80].to_vec();
    prompt.extend([9, 8, 7]);

    let mut reference = FullKvBackend::new(&model_cfg);
    let ref_logits = model.prefill(&prompt, 0, &mut reference);

    let (mut session, truncated) = db.create_session(&prompt);
    assert_eq!(session.reused_len(), 80);
    assert_eq!(truncated, vec![9, 8, 7]);
    let got_logits = model.prefill(&truncated, session.seq_len(0), &mut session);

    let mut max_err = 0.0f32;
    for (a, b) in ref_logits.iter().zip(&got_logits) {
        max_err = max_err.max((a - b).abs());
    }
    assert!(
        max_err < 0.15,
        "filtered sparse logits diverged: max err {max_err}"
    );
    assert!(
        session
            .plan_log()
            .iter()
            .any(|p| p.explain().contains("token<80")),
        "expected a filtered plan, log: {:?}",
        session.plan_log()
    );
}

/// The late-materialization lifecycle: generate, store, and the stored
/// context must serve an identical follow-up session.
#[test]
fn store_materializes_session_state_once() {
    let model_cfg = ModelConfig::tiny();
    let model = Model::new(model_cfg.clone());
    let mut db_cfg = DbConfig::for_tests(model_cfg.clone());
    db_cfg.optimizer.short_context_threshold = 1_000_000;
    let db = Db::new(db_cfg);

    let prompt = Tokenizer::new().encode_prompt("alayadb stores sessions lazily");
    let (mut s1, t1) = db.create_session(&prompt);
    s1.note_tokens(&t1);
    let logits = model.prefill(&t1, 0, &mut s1);
    let gen = model.decode(logits, t1.len(), 6, &mut s1);
    s1.note_tokens(&gen);
    assert_eq!(db.n_contexts(), 0, "nothing materialized during decode");
    db.store(&s1);
    assert_eq!(db.n_contexts(), 1, "store materializes exactly once");

    // The follow-up conversation reuses prompt + generated tokens.
    let mut follow_up = prompt.clone();
    follow_up.extend(&gen[..gen.len() - 1]);
    follow_up.extend(Tokenizer::new().encode("next question"));
    let (s2, truncated) = db.create_session(&follow_up);
    assert_eq!(s2.reused_len(), prompt.len() + gen.len() - 1);
    assert_eq!(truncated.len(), "next question".len());

    // And a from-scratch reference agrees.
    let mut reference = FullKvBackend::new(&model_cfg);
    let ref_logits = model.prefill(&follow_up, 0, &mut reference);
    let mut s2 = s2;
    let got_logits = model.prefill(&truncated, s2.seq_len(0), &mut s2);
    assert!(
        close(&ref_logits, &got_logits, 1e-3),
        "stored context must reproduce state"
    );
}

/// Table 2's manual-management option: `full_kv` equals the coupled
/// backend's cache contents position-for-position.
#[test]
fn full_kv_matches_coupled_cache() {
    let model_cfg = ModelConfig::tiny();
    let model = Model::new(model_cfg.clone());
    let mut db_cfg = DbConfig::for_tests(model_cfg.clone());
    db_cfg.optimizer.short_context_threshold = 1_000_000;
    let db = Db::new(db_cfg);

    let prompt: Vec<u32> = (0..20u32).collect();
    let mut coupled = FullKvBackend::new(&model_cfg);
    model.prefill(&prompt, 0, &mut coupled);

    let (mut session, truncated) = db.create_session(&prompt);
    model.prefill(&truncated, 0, &mut session);

    for layer in 0..model_cfg.n_layers {
        for head in 0..model_cfg.n_kv_heads {
            let (keys, values) = session.full_kv(layer, head);
            let want = coupled.cache().head(layer, head);
            assert_eq!(
                keys.as_flat(),
                want.keys.as_flat(),
                "layer {layer} head {head} keys"
            );
            assert_eq!(
                values.as_flat(),
                want.values.as_flat(),
                "layer {layer} head {head} values"
            );
        }
    }
}
