//! Legal assistant for question answering (§8 use case 2).
//!
//! A law firm stores its statute corpus in AlayaDB. Different users'
//! conversations share the statutes as a common *prefix* but diverge
//! afterwards, so sessions reuse only part of a stored context — the
//! partial-reuse path: the optimizer attaches an attribute-filtering
//! predicate and DIPRS searches only the reused prefix of the stored
//! index (§7.1).
//!
//! Run: `cargo run --release --example legal_assistant`

use alayadb::core::{Db, DbConfig};
use alayadb::llm::{FullKvBackend, Model, ModelConfig, Tokenizer};

fn statutes() -> String {
    let mut text = String::from("CIVIL CODE. ");
    for article in 1..40 {
        text.push_str(&format!(
            "Article {article}: a party in breach of contract shall compensate the damages \
             foreseeable at the time of conclusion, unless clause {article} provides otherwise. "
        ));
    }
    text
}

fn main() {
    let model_cfg = ModelConfig::tiny();
    let model = Model::new(model_cfg.clone());
    let tok = Tokenizer::new();

    let mut db_cfg = DbConfig::for_tests(model_cfg.clone());
    db_cfg.optimizer.short_context_threshold = 256;
    let db = Db::new(db_cfg);

    // User A's full conversation (statutes + their questions) was stored
    // yesterday.
    let corpus = tok.encode_prompt(&statutes());
    let mut user_a_session = corpus.clone();
    user_a_session.extend(tok.encode("USER A: Is a penalty clause enforceable? ASSISTANT: ..."));
    let mut backend = FullKvBackend::new(&model_cfg);
    model.prefill(&user_a_session, 0, &mut backend);
    db.import(user_a_session.clone(), backend.into_cache());
    println!(
        "stored: user A's conversation ({} tokens, statutes = first {})",
        user_a_session.len(),
        corpus.len()
    );

    // User B shares only the statutes; their question differs.
    let mut user_b_prompt = corpus.clone();
    user_b_prompt.extend(tok.encode("USER B: What damages are recoverable?"));
    let (mut session, truncated) = db.create_session(&user_b_prompt);
    println!(
        "user B: reused {} tokens (the statutes), prefilling {} question tokens",
        session.reused_len(),
        truncated.len()
    );
    // The shared prefix covers the statutes (plus the few bytes of "USER "
    // boilerplate both conversations begin their turns with).
    assert!(
        session.reused_len() >= corpus.len(),
        "the shared statutes must be reused"
    );
    assert!(
        session.reused_len() < user_a_session.len(),
        "user A's questions must not leak"
    );

    let answer = model.generate(&truncated, 16, &mut session);
    println!("answer tokens: {:?}", tok.decode(&answer));

    // The plan log shows the attribute filter restricting retrieval to
    // the reused prefix of user A's stored index.
    let filtered_plan = session
        .plan_log()
        .iter()
        .map(|p| p.explain())
        .find(|p| p.contains("token<"))
        .expect("partial reuse must produce a filtered plan");
    println!("filtered plan: {filtered_plan}");

    // Precision check: the filtered session matches recomputing from
    // scratch (legal answers must be exact — §8's accuracy requirement).
    let mut reference = FullKvBackend::new(&model_cfg);
    let want = model.generate(&user_b_prompt, 16, &mut reference);
    if want == answer {
        println!("matches from-scratch recomputation exactly");
    } else {
        let agree = want.iter().zip(&answer).take_while(|(a, b)| a == b).count();
        println!(
            "agrees with recomputation for {agree}/{} tokens (sparse plan)",
            want.len()
        );
    }
}
