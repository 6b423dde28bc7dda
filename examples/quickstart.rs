//! Quickstart: the Figure 4 integration in miniature.
//!
//! An inference engine normally owns its KV cache (`FullKvBackend`, the
//! "coupled architecture"). Switching to AlayaDB means swapping that cache
//! for a `Session` — the model code is unchanged because both implement
//! `AttentionBackend`. The session plans every attention call through the
//! query optimizer and can reuse contexts stored in the DB.
//!
//! Run: `cargo run --release --example quickstart`

use alayadb::core::{Db, DbConfig};
use alayadb::llm::{FullKvBackend, Model, ModelConfig, Tokenizer};

fn main() {
    // A small decoder-only transformer (seeded random weights — the
    // substrate exercises structure, not trained knowledge).
    let model_cfg = ModelConfig::small();
    let model = Model::new(model_cfg.clone());
    let tok = Tokenizer::new();

    // The database, configured for this model's geometry.
    let db = Db::new(DbConfig::for_tests(model_cfg.clone()));

    let prompt = tok.encode_prompt("What is a database system? A");

    // --- Coupled architecture: engine-owned KV cache ------------------
    let mut coupled = FullKvBackend::new(&model_cfg);
    let reference = model.generate(&prompt, 16, &mut coupled);
    println!("coupled backend  : {:?}", tok.decode(&reference));

    // --- AlayaDB: cache + attention live in the database --------------
    let (mut session, truncated) = db.create_session(&prompt);
    session.note_tokens(&truncated);
    let answer = model.generate(&truncated, 16, &mut session);
    session.note_tokens(&answer);
    println!("alayadb session  : {:?}", tok.decode(&answer));
    assert_eq!(reference, answer, "full-attention plans are exact");

    // Store the session: prompt + generation become a reusable context.
    let ctx_id = db.store(&session);
    println!(
        "stored context {:?} ({} tokens)",
        ctx_id,
        db.context(ctx_id).unwrap().len()
    );

    // A follow-up prompt reuses the stored prefix: the engine only
    // prefills the truncated suffix.
    let mut follow_up = prompt.clone();
    follow_up.extend(&answer[..answer.len() - 1]);
    follow_up.extend(tok.encode(" Tell me more."));
    let (mut s2, truncated2) = db.create_session(&follow_up);
    println!(
        "follow-up: {} of {} prompt tokens reused, prefilling {}",
        s2.reused_len(),
        follow_up.len(),
        truncated2.len()
    );
    let more = model.generate(&truncated2, 12, &mut s2);
    println!("continuation     : {:?}", tok.decode(&more));
    let plans: Vec<String> = s2.plan_log().iter().map(|p| p.explain()).collect();
    println!("plans used       : {plans:?}");
}
