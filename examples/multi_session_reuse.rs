//! Multi-turn chat across sessions: the late-materialization lifecycle.
//!
//! Each chat turn runs in its own session. During a turn, new KV stays in
//! the session-local window (nothing is indexed); on `DB.store` the turn's
//! state becomes a stored, indexed context that the next turn's
//! `create_session` picks up via longest-common-prefix matching. The chat
//! history therefore never gets re-prefilled — the paper's "de facto
//! standard" KV reuse, but managed by the database. Stored contexts are a
//! cache: a turn's context extends the previous turn's, so it supersedes
//! it and the conversation keeps exactly one resident context.
//!
//! Run: `cargo run --release --example multi_session_reuse`

use alayadb::core::{Db, DbConfig};
use alayadb::llm::{Model, ModelConfig, Tokenizer};

fn main() {
    let model_cfg = ModelConfig::tiny();
    let model = Model::new(model_cfg.clone());
    let tok = Tokenizer::new();
    let db = Db::new(DbConfig::for_tests(model_cfg.clone()));

    let user_turns = [
        "Hello! Please remember the codeword: lighthouse.",
        "What are vector databases good for?",
        "And how do they help LLM inference?",
        "What was the codeword again?",
    ];

    // The running transcript (token ids) across turns.
    let mut transcript = tok.encode_prompt("SYSTEM: You are a helpful assistant.");
    let mut latest = None;

    for (turn, user) in user_turns.iter().enumerate() {
        transcript.extend(tok.encode(&format!("\nUSER: {user}\nASSISTANT:")));

        let (mut session, truncated) = db.create_session(&transcript);
        println!(
            "turn {turn}: transcript {:>4} tokens | reused {:>4} | prefilled {:>3}",
            transcript.len(),
            session.reused_len(),
            truncated.len()
        );
        assert!(
            turn == 0 || session.reused_len() > 0,
            "later turns must reuse the stored history"
        );

        session.note_tokens(&truncated);
        let reply = model.generate(&truncated, 10, &mut session);
        session.note_tokens(&reply);

        // Materialize once, at the end of the turn; the new context
        // replaces the one it extends.
        assert_eq!(db.n_contexts(), turn.min(1), "no materialization mid-turn");
        latest = Some(db.store(&session));
        assert_eq!(db.n_contexts(), 1, "one resident context per conversation");

        // The generated tokens (minus the final unprocessed one) join the
        // transcript for the next turn.
        transcript.extend(&reply[..reply.len() - 1]);
    }

    let stored = latest
        .and_then(|id| db.context(id))
        .expect("the last turn's context is resident");
    println!(
        "\nresident contexts: {} ({} superseded along the way)",
        db.n_contexts(),
        db.stats().contexts_superseded()
    );
    println!("stored context: {} tokens", stored.len());
    println!("every turn reused the previous turn's stored prefix — the chat history was prefilled exactly once.");
}
