//! Financial document analysis (§8 use case 1).
//!
//! A financial data team loads long documents (statements, audit reports)
//! into AlayaDB once; analysts then run many questions against them. The
//! expensive part — prefilling each document — happens once at import;
//! every analyst question reuses the stored context and only prefills the
//! question itself. The example measures exactly that speedup and shows
//! the optimizer switching to sparse plans on the long contexts.
//!
//! Run: `cargo run --release --example financial_analysis`

use std::time::Instant;

use alayadb::core::{Db, DbConfig};
use alayadb::llm::{FullKvBackend, Model, ModelConfig, Tokenizer};

/// Deterministic pseudo-document: repetitive financial boilerplate with a
/// few distinctive figures planted inside.
fn document(name: &str, paragraphs: usize) -> String {
    let mut doc = format!("ANNUAL REPORT {name}\n");
    for p in 0..paragraphs {
        doc.push_str(&format!(
            "Section {p}: revenue grew {}% while operating costs held at {} million; \
             the auditors signed off on item {p} without qualification. ",
            (p * 7) % 23,
            100 + (p * 13) % 900,
        ));
    }
    doc
}

fn main() {
    let model_cfg = ModelConfig::tiny();
    let model = Model::new(model_cfg.clone());
    let tok = Tokenizer::new();

    // Long contexts: lower the short-context threshold so the optimizer
    // actually plans sparse attention over the stored documents.
    let mut db_cfg = DbConfig::for_tests(model_cfg.clone());
    db_cfg.optimizer.short_context_threshold = 256;
    let db = Db::new(db_cfg);

    // --- Offline: the team imports its document corpus ----------------
    let docs = [document("FY2024", 30), document("FY2023", 24)];
    for doc in &docs {
        let tokens = tok.encode_prompt(doc);
        let t0 = Instant::now();
        let mut backend = FullKvBackend::new(&model_cfg);
        model.prefill(&tokens, 0, &mut backend);
        let prefill = t0.elapsed();
        let t1 = Instant::now();
        db.import(tokens.clone(), backend.into_cache());
        println!(
            "imported {} tokens (prefill {:.0?}, index build {:.0?})",
            tokens.len(),
            prefill,
            t1.elapsed()
        );
    }

    // --- Online: analysts ask questions against the stored corpus -----
    let questions = [
        "Summarize revenue growth.",
        "Any audit qualifications?",
        "Top cost drivers?",
    ];
    for q in questions {
        let mut prompt = tok.encode_prompt(&docs[0]);
        prompt.extend(tok.encode(q));

        let t0 = Instant::now();
        let (mut session, truncated) = db.create_session(&prompt);
        let answer = model.generate(&truncated, 12, &mut session);
        let reuse_time = t0.elapsed();

        println!(
            "Q: {q:<28} reused {:>5} tokens, prefilled {:>2}, answered in {:.1?} ({} sparse plan)",
            session.reused_len(),
            truncated.len(),
            reuse_time,
            session
                .plan_log()
                .iter()
                .map(|p| p.explain())
                .find(|p| p.contains("DIPR") || p.contains("TopK"))
                .unwrap_or_else(|| "full-attention".into()),
        );
        let _ = answer;
    }

    // The reference cost without reuse: prefill the whole document again
    // for one question.
    let mut prompt = tok.encode_prompt(&docs[0]);
    prompt.extend(tok.encode(questions[0]));
    let t0 = Instant::now();
    let mut fresh = FullKvBackend::new(&model_cfg);
    model.generate(&prompt, 12, &mut fresh);
    println!("without reuse: {:.1?} for the same question", t0.elapsed());
}
