//! Property tests for the DB/Session reuse semantics.

use alaya_core::{ContextId, Db, DbConfig};
use alaya_llm::{FullKvBackend, Model, ModelConfig};
use proptest::prelude::*;

fn db_and_model() -> (Db, Model) {
    let cfg = ModelConfig::tiny();
    (Db::new(DbConfig::for_tests(cfg.clone())), Model::new(cfg))
}

fn import(db: &Db, model: &Model, tokens: &[u32]) -> ContextId {
    let mut backend = FullKvBackend::new(model.config());
    model.prefill(tokens, 0, &mut backend);
    db.import(tokens.to_vec(), backend.into_cache())
}

fn common_prefix_len(a: &[u32], b: &[u32]) -> usize {
    a.iter().zip(b).take_while(|(x, y)| x == y).count()
}

struct RefEntry {
    id: ContextId,
    tokens: Vec<u32>,
    bytes: u64,
    last_used: u64,
}

/// The brute-force twin of the DB's context cache: a plain list in
/// publication order under the same two rules (supersede, then evict).
#[derive(Default)]
struct Reference {
    resident: Vec<RefEntry>,
    clock: u64,
    superseded: u64,
    evicted: u64,
}

impl Reference {
    fn bytes(&self) -> u64 {
        self.resident.iter().map(|e| e.bytes).sum()
    }

    fn publish(&mut self, id: ContextId, tokens: Vec<u32>, bytes: u64, budget: u64) {
        let before = self.resident.len();
        self.resident.retain(|e| !tokens.starts_with(&e.tokens));
        self.superseded += (before - self.resident.len()) as u64;
        self.clock += 1;
        self.resident.push(RefEntry {
            id,
            tokens,
            bytes,
            last_used: self.clock,
        });
        while self.bytes() > budget && self.resident.len() > 1 {
            let older = &self.resident[..self.resident.len() - 1];
            let lru = (0..older.len())
                .min_by_key(|&i| older[i].last_used)
                .unwrap();
            self.resident.remove(lru);
            self.evicted += 1;
        }
    }

    /// What `create_session(prompt)` must reuse: the longest common
    /// prefix, the latest publication among equals, one token held back.
    fn open(&mut self, prompt: &[u32]) -> (usize, Option<ContextId>) {
        let mut best = (0, None);
        for (i, e) in self.resident.iter().enumerate() {
            let lcp = common_prefix_len(&e.tokens, prompt);
            if lcp >= best.0 {
                best = (lcp, Some(i));
            }
        }
        let reused = best.0.min(prompt.len() - 1);
        match best.1 {
            Some(i) if reused > 0 => {
                self.clock += 1;
                self.resident[i].last_used = self.clock;
                (reused, Some(self.resident[i].id))
            }
            _ => (0, None),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `create_session` reuses exactly the longest common prefix over all
    /// stored contexts, capped so at least one prompt token remains, and
    /// the truncated prompt is exactly the un-reused suffix.
    #[test]
    fn lcp_reuse_is_exact(
        stored_a in prop::collection::vec(0u32..6, 4..24),
        stored_b in prop::collection::vec(0u32..6, 4..24),
        prompt in prop::collection::vec(0u32..6, 1..30),
    ) {
        let (db, model) = db_and_model();
        import(&db, &model, &stored_a);
        import(&db, &model, &stored_b);

        let lcp = |ctx: &[u32]| common_prefix_len(ctx, &prompt);
        let best = lcp(&stored_a).max(lcp(&stored_b));
        let expect = best.min(prompt.len() - 1);

        let (session, truncated) = db.create_session(&prompt);
        prop_assert_eq!(session.reused_len(), expect);
        prop_assert_eq!(truncated.as_slice(), &prompt[expect..]);
        prop_assert_eq!(session.reused_len() + truncated.len(), prompt.len());
        prop_assert!(!truncated.is_empty(), "engine always gets at least one token");
    }

    /// Store/reuse round trip: whatever the generation length, a stored
    /// session's context matches its noted tokens (minus the final
    /// unprocessed token) and is found by the next session.
    #[test]
    fn store_round_trip(prompt in prop::collection::vec(0u32..250, 2..12), gen_len in 1usize..6) {
        let (db, model) = db_and_model();
        let (mut session, truncated) = db.create_session(&prompt);
        session.note_tokens(&truncated);
        let logits = model.prefill(&truncated, 0, &mut session);
        let generated = model.decode(logits, truncated.len(), gen_len, &mut session);
        session.note_tokens(&generated);
        let id = db.store(&session);

        let stored = db.context(id).unwrap();
        // The last generated token is sampled but not forward-passed.
        prop_assert_eq!(stored.len(), prompt.len() + generated.len() - 1);
        prop_assert_eq!(&stored.tokens[..prompt.len()], prompt.as_slice());

        let (s2, t2) = db.create_session(&prompt);
        prop_assert_eq!(s2.reused_len(), prompt.len() - 1);
        prop_assert_eq!(t2.len(), 1);
    }

    /// Random `import` / `store` / `create_session` sequences against the
    /// brute-force reference: after every step the DB holds exactly the
    /// reference's contexts (so every supersede and every LRU victim
    /// agree), within the byte budget, and opens sessions on the
    /// reference's match.
    #[test]
    fn context_cache_matches_brute_force_reference(
        budget in 15_000u64..90_000,
        ops in prop::collection::vec(
            (0u8..4, 0usize..1000, 40usize..=160, prop::collection::vec(0u32..4, 1..7)),
            30..45,
        ),
    ) {
        let model_cfg = ModelConfig::tiny();
        let model = Model::new(model_cfg.clone());
        let db = Db::new(DbConfig {
            context_budget_bytes: budget,
            ..DbConfig::for_tests(model_cfg)
        });
        let mut reference = Reference::default();
        let mut issued: Vec<ContextId> = Vec::new();

        for (kind, pick, keep_pct, fresh) in ops {
            // A prompt that extends (half the time) or branches off a
            // resident context, so prefix relations are the common case.
            let n = reference.resident.len();
            let mut prompt = Vec::new();
            if kind > 0 && n > 0 {
                let tokens = &reference.resident[pick % n].tokens;
                prompt.extend(&tokens[..tokens.len() * keep_pct.min(100) / 100]);
            }
            prompt.extend(fresh);

            let open = |reference: &mut Reference| {
                let (want_reused, want_base) = reference.open(&prompt);
                let (session, truncated) = db.create_session(&prompt);
                prop_assert_eq!(session.reused_len(), want_reused);
                prop_assert_eq!(session.base().map(|b| b.id), want_base);
                prop_assert_eq!(truncated.as_slice(), &prompt[want_reused..]);
                (session, truncated)
            };
            let published = match kind {
                0 | 1 => Some((import(&db, &model, &prompt), prompt.clone())),
                2 => {
                    let (mut session, truncated) = open(&mut reference);
                    session.note_tokens(&truncated);
                    let pos = session.reused_len();
                    let logits = model.prefill(&truncated, pos, &mut session);
                    let generated = model.decode(logits, prompt.len(), 1 + pick % 3, &mut session);
                    session.note_tokens(&generated);
                    let mut tokens = prompt.clone();
                    tokens.extend(&generated[..generated.len() - 1]);
                    Some((db.store(&session), tokens))
                }
                _ => {
                    open(&mut reference);
                    None
                }
            };
            if let Some((id, tokens)) = published {
                let newest = db.context(id).expect("the newest context is resident");
                prop_assert_eq!(&newest.tokens, &tokens);
                reference.publish(id, tokens, newest.bytes(), budget);
                issued.push(id);
            }

            for &id in &issued {
                let want = reference.resident.iter().any(|e| e.id == id);
                prop_assert_eq!(db.context(id).is_some(), want, "residency of {:?}", id);
            }
            prop_assert_eq!(db.n_contexts(), reference.resident.len());
            prop_assert_eq!(db.stats().context_bytes(), reference.bytes());
            prop_assert_eq!(db.stats().contexts_superseded(), reference.superseded);
            prop_assert_eq!(db.stats().contexts_evicted(), reference.evicted);
            prop_assert!(reference.bytes() <= budget || db.n_contexts() == 1);
            for (i, old) in reference.resident.iter().enumerate() {
                for new in &reference.resident[i + 1..] {
                    prop_assert!(
                        !new.tokens.starts_with(&old.tokens),
                        "{:?} is a prefix of the later {:?}", old.id, new.id
                    );
                }
            }
        }
        prop_assert!(reference.superseded > 0 && reference.evicted > 0, "both rules ran");
    }
}
