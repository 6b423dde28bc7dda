//! The `DB` abstraction: the manager of all stored contexts (Table 2).
//!
//! # Stored contexts are a bounded cache
//!
//! Publishing a context (`import`, `store`) is a cache insert.
//! Under the one `core.db.contexts` write-lock hold that makes the new
//! context visible, two rules run:
//!
//! * **Supersede.** Every resident context whose token sequence is a
//!   prefix of, or equal to, the new one is removed. For any prompt its
//!   common prefix is no longer than the new context's, and
//!   [`Db::create_session`] breaks ties toward the later publication, so
//!   it could never be matched again: what is served does not change.
//! * **Evict.** Each context is charged [`StoredContext::bytes`] against
//!   [`DbConfig::context_budget_bytes`]; while the table is over budget the
//!   least-recently-reused context goes, where "reused" means published or
//!   matched by `create_session`. The context being published is never the
//!   victim, so one larger than the whole budget is kept alone.
//!
//! A [`ContextId`] therefore names a cache entry: [`Db::context`] answers
//! `None` once the entry is superseded or evicted, and ids are never
//! reissued. Sessions opened on a context hold its `Arc` and keep serving
//! from it after it left the table; the memory goes when the last one
//! closes.
//!
//! # Lock order
//!
//! `core.db.contexts` is a leaf: nothing is locked under it. Publication
//! (`import`, `store`) builds outside it and takes the write lock
//! only to hand out an id or to insert; lookups ([`Db::context`],
//! [`Db::create_session`]) take the read lock alone and release it before
//! any attention runs. Callers hold none of their own locks across a DB
//! call either: the serving engine clones a session under its
//! `serve.session` lock and releases it before [`Db::store`] runs, so that
//! lock is a leaf too. `tests/lock_tracing.rs` pins both: the tracing
//! shim's acquisition-order graph shows no edge out of either.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use alaya_device::memory::MemoryTracker;
use alaya_llm::kv::{HeadKv, KvCache};
use alaya_telemetry::{Counter, Gauge};
use parking_lot::RwLock;

use crate::config::DbConfig;
use crate::session::{concat_rows, Session};
use crate::stored::{ContextId, QueryReservoir, StoredContext};

/// One resident context and its cache bookkeeping.
struct Entry {
    ctx: Arc<StoredContext>,
    /// `ctx.bytes()`, the charge against the budget.
    bytes: u64,
    /// The table clock's reading at the last publish or `create_session`
    /// hit; the smallest one is the eviction victim. Atomic because hits
    /// happen under the read lock.
    last_used: AtomicU64,
}

/// The resident stored contexts, in publication order: prefix matching
/// scans them all and breaks ties toward the last, and both cache rules
/// remove from the middle, so one `Vec` is the whole structure.
#[derive(Default)]
struct ContextTable {
    entries: Vec<Entry>,
    /// Sum of `entries[..].bytes`.
    bytes: u64,
    /// Every id below this has been handed out (to a context that may be
    /// in flight, resident or long gone) and is never handed out again.
    next_id: u64,
    /// Logical time for `Entry::last_used`. `Relaxed` throughout: it
    /// orders nothing but eviction.
    clock: AtomicU64,
}

/// What one [`ContextTable::insert`] removed.
struct Removed {
    superseded: Vec<Entry>,
    evicted: Vec<Entry>,
}

impl ContextTable {
    fn alloc_id(&mut self) -> ContextId {
        let id = ContextId(self.next_id);
        self.next_id += 1;
        id
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    fn get(&self, id: ContextId) -> Option<&Arc<StoredContext>> {
        self.entries.iter().map(|e| &e.ctx).find(|c| c.id == id)
    }

    /// Inserts `ctx` (of `bytes` = `ctx.bytes()`, which walks every graph
    /// and is the caller's to compute before it locks) as the newest entry
    /// and applies the supersede and evict rules (module docs). The caller
    /// drops what comes back after releasing the lock.
    fn insert(&mut self, ctx: StoredContext, bytes: u64, budget: u64) -> Removed {
        let superseded: Vec<Entry> = self
            .entries
            .extract_if(.., |e| ctx.tokens.starts_with(&e.ctx.tokens))
            .collect();
        self.bytes -= superseded.iter().map(|e| e.bytes).sum::<u64>();

        self.bytes += bytes;
        self.entries.push(Entry {
            bytes,
            last_used: AtomicU64::new(self.tick()),
            ctx: Arc::new(ctx),
        });

        let mut evicted = Vec::new();
        while self.bytes > budget {
            // Every entry but the newest (the last) is a candidate.
            let candidates = 0..self.entries.len() - 1;
            let Some(lru) =
                candidates.min_by_key(|&i| self.entries[i].last_used.load(Ordering::Relaxed))
            else {
                break;
            };
            let victim = self.entries.remove(lru);
            self.bytes -= victim.bytes;
            evicted.push(victim);
        }
        Removed {
            superseded,
            evicted,
        }
    }
}

/// Lifetime counters for one [`Db`]: telemetry cells, read through
/// [`Db::stats`].
#[derive(Default)]
pub struct DbStats {
    sessions_created: Counter,
    contexts_imported: Counter,
    contexts_superseded: Counter,
    contexts_evicted: Counter,
    context_bytes: Gauge,
    graphs_without_queries: Counter,
}

impl DbStats {
    /// Sessions opened via [`Db::create_session`].
    pub fn sessions_created(&self) -> u64 {
        self.sessions_created.get()
    }
    /// Contexts published through `import`/`store`.
    pub fn contexts_imported(&self) -> u64 {
        self.contexts_imported.get()
    }
    /// Contexts removed because a later publication extended (or equalled)
    /// their token sequence.
    pub fn contexts_superseded(&self) -> u64 {
        self.contexts_superseded.get()
    }
    /// Contexts removed, least recently reused first, to fit
    /// [`DbConfig::context_budget_bytes`].
    pub fn contexts_evicted(&self) -> u64 {
        self.contexts_evicted.get()
    }
    /// Bytes of the resident contexts ([`StoredContext::bytes`] summed) as
    /// of the last publication.
    pub fn context_bytes(&self) -> u64 {
        self.context_bytes.get() as u64
    }
    /// Contexts published with at least one graph layer trained from
    /// sampled keys ([`StoredContext::key_trained_layers`]): `import` of a
    /// bare KV cache, or a store whose query reservoir had an empty head.
    /// DIPRS recall read off such graphs is the fallback's, not the index's.
    pub fn graphs_without_queries(&self) -> u64 {
        self.graphs_without_queries.get()
    }
}

/// An AlayaDB instance: stored contexts (prompts, KV caches, vector
/// indexes) plus the machinery to open sessions against them.
pub struct Db {
    cfg: DbConfig,
    contexts: RwLock<ContextTable>,
    stats: DbStats,
}

impl Db {
    /// Opens an empty database.
    pub fn new(cfg: DbConfig) -> Self {
        cfg.model.validate();
        Self {
            cfg,
            contexts: RwLock::new_named(ContextTable::default(), "core.db.contexts"),
            stats: DbStats::default(),
        }
    }

    /// The database configuration.
    pub fn config(&self) -> &DbConfig {
        &self.cfg
    }

    /// This database's lifetime counters.
    pub fn stats(&self) -> &DbStats {
        &self.stats
    }

    /// The GPU budget tracker the optimizer probes.
    pub fn gpu(&self) -> &Arc<MemoryTracker> {
        &self.cfg.gpu
    }

    /// Number of resident stored contexts.
    pub fn n_contexts(&self) -> usize {
        self.contexts.read().entries.len()
    }

    /// Fetches a resident stored context by id. A [`ContextId`] names a
    /// cache entry, not a durable object: the answer is `None` before the
    /// context is published and again once it has been superseded or
    /// evicted (module docs). The lookup scans the resident table, as
    /// [`Db::create_session`] does; the byte budget bounds both. The
    /// returned `Arc` is a lock-free handle: attention over the context
    /// never holds the DB-wide lock, and the context outlives its entry
    /// for as long as the handle is held.
    pub fn context(&self, id: ContextId) -> Option<Arc<StoredContext>> {
        self.contexts.read().get(id).cloned()
    }

    /// `DB.create_session(prompts)`: opens a session, reusing the longest
    /// common token prefix among resident stored contexts (the most
    /// recently published of equals). Returns the session and the
    /// *truncated* prompt — the suffix the engine still has to prefill
    /// (always at least one token, so the engine can produce logits). A
    /// hit marks the context as just reused for eviction.
    pub fn create_session(&self, prompt: &[u32]) -> (Session, Vec<u32>) {
        assert!(!prompt.is_empty(), "prompt must contain at least one token");
        self.stats.sessions_created.inc();
        let contexts = self.contexts.read();
        let hit = contexts
            .entries
            .iter()
            .map(|e| (e.ctx.common_prefix_len(prompt), e))
            .max_by_key(|(lcp, _)| *lcp)
            // Keep at least one prompt token for the engine.
            .map(|(lcp, e)| (lcp.min(prompt.len() - 1), e))
            .filter(|(reused, _)| *reused > 0);

        match hit {
            Some((reused, entry)) => {
                entry.last_used.store(contexts.tick(), Ordering::Relaxed);
                let base = Some(Arc::clone(&entry.ctx));
                let session = Session::new(self.cfg.clone(), base, reused);
                (session, prompt[reused..].to_vec())
            }
            None => (Session::new(self.cfg.clone(), None, 0), prompt.to_vec()),
        }
    }

    /// `DB.import(prompts, kv_cache)`: registers an externally computed
    /// context (e.g. prefilled by another engine instance) for reuse.
    /// Indexes are trained from sampled keys (no query samples available).
    pub fn import(&self, tokens: Vec<u32>, kv: KvCache) -> ContextId {
        self.import_with_queries(tokens, kv, None)
    }

    /// [`Db::import`] with decode-distribution query samples for index
    /// training (higher fine-index recall; this is what `DB.store` uses).
    pub fn import_with_queries(
        &self,
        tokens: Vec<u32>,
        kv: KvCache,
        queries: Option<&QueryReservoir>,
    ) -> ContextId {
        assert_eq!(
            tokens.len(),
            kv.seq_len(0),
            "token sequence and KV cache must have equal length"
        );
        // Index construction runs outside the contexts lock, so imports do
        // not block concurrent session creation or lookup; a panicking
        // build publishes nothing.
        let id = self.alloc_id();
        let ctx = StoredContext::build(id, tokens, kv, queries, &self.cfg);
        self.publish(ctx);
        id
    }

    fn alloc_id(&self) -> ContextId {
        self.contexts.write().alloc_id()
    }

    /// Makes a context built by `import`/`store` visible — atomically with
    /// the removal of whatever it supersedes or pushes out.
    fn publish(&self, ctx: StoredContext) {
        let bytes = ctx.bytes();
        if ctx.key_trained_layers() > 0 {
            self.stats.graphs_without_queries.inc();
        }
        // The removed entries free their KV and graphs once the lock is
        // released, at the end of this function.
        let _removed = {
            let mut contexts = self.contexts.write();
            let removed = contexts.insert(ctx, bytes, self.cfg.context_budget_bytes);
            self.stats
                .contexts_superseded
                .add(removed.superseded.len() as u64);
            self.stats
                .contexts_evicted
                .add(removed.evicted.len() as u64);
            self.stats.context_bytes.set(contexts.bytes as i64);
            removed
        };
        self.stats.contexts_imported.inc();
    }

    /// `DB.store(session)`: materializes the session's full state — reused
    /// prefix plus the session-local window — into a new stored, indexed
    /// context (the late-materialization point, §7.2). The KV merge and
    /// the index build run on the calling thread, and the build fans out
    /// over the shared pool ([`StoredContext::build`]). Readers
    /// ([`Db::context`], [`Db::create_session`]) keep serving existing
    /// contexts throughout: the new one is published in one write-lock
    /// hold, so it is either entirely absent or entirely built.
    ///
    /// # Panics
    /// Panics if [`Session::storable_len`] is `None`: the session's noted
    /// tokens do not cover its full sequence (call [`Session::note_tokens`]
    /// during generation), or its layers hold different numbers of rows
    /// (a prefill stopped mid-chunk).
    pub fn store(&self, session: &Session) -> ContextId {
        let total = session.total_len();
        assert!(
            session.storable_len().is_some(),
            "session knows {} tokens but holds {} positions in layer 0; call note_tokens() \
             and finish the prefill in every layer",
            session.tokens().len(),
            total
        );
        let (base, reused_len, local) = (session.base(), session.reused_len(), session.local_kv());
        let mut kv = KvCache::new(local.n_layers(), local.n_kv_heads(), local.head_dim());
        for layer in 0..local.n_layers() {
            for kvh in 0..local.n_kv_heads() {
                let stored = base.map(|b| b.kv.head(layer, kvh));
                let tail = local.head(layer, kvh);
                *kv.head_mut(layer, kvh) = HeadKv {
                    keys: concat_rows(stored.map(|h| &h.keys), reused_len, &tail.keys),
                    values: concat_rows(stored.map(|h| &h.values), reused_len, &tail.values),
                };
            }
        }
        self.import_with_queries(
            session.tokens()[..total].to_vec(),
            kv,
            Some(session.query_samples()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alaya_llm::{FullKvBackend, Model, ModelConfig};

    fn db() -> (Db, Model) {
        let model_cfg = ModelConfig::tiny();
        let db = Db::new(DbConfig::for_tests(model_cfg.clone()));
        (db, Model::new(model_cfg))
    }

    /// The KV of `tokens`, prefilled with the full backend.
    fn prefilled(model: &Model, tokens: &[u32]) -> KvCache {
        let mut backend = FullKvBackend::new(model.config());
        model.prefill(tokens, 0, &mut backend);
        backend.into_cache()
    }

    fn import_context(db: &Db, model: &Model, tokens: &[u32]) -> ContextId {
        db.import(tokens.to_vec(), prefilled(model, tokens))
    }

    #[test]
    fn empty_db_session_reuses_nothing() {
        let (db, _) = db();
        let prompt: Vec<u32> = (0..10).collect();
        let (session, truncated) = db.create_session(&prompt);
        assert_eq!(session.reused_len(), 0);
        assert_eq!(truncated, prompt);
    }

    #[test]
    fn full_prefix_reuse_truncates_prompt() {
        let (db, model) = db();
        let ctx: Vec<u32> = (10..90).collect();
        import_context(&db, &model, &ctx);

        // Same context + new question.
        let mut prompt = ctx.clone();
        prompt.extend([200, 201, 202]);
        let (session, truncated) = db.create_session(&prompt);
        assert_eq!(session.reused_len(), 80);
        assert_eq!(truncated, vec![200, 201, 202]);
    }

    #[test]
    fn identical_prompt_keeps_one_token() {
        let (db, model) = db();
        let ctx: Vec<u32> = (10..60).collect();
        import_context(&db, &model, &ctx);
        let (session, truncated) = db.create_session(&ctx);
        assert_eq!(session.reused_len(), 49);
        assert_eq!(truncated, vec![59]);
    }

    #[test]
    fn partial_prefix_reuse() {
        let (db, model) = db();
        let stored: Vec<u32> = (0..100).collect();
        import_context(&db, &model, &stored);
        // Prompt shares only the first 40 tokens.
        let mut prompt: Vec<u32> = (0..40).collect();
        prompt.extend([250, 251]);
        let (session, truncated) = db.create_session(&prompt);
        assert_eq!(session.reused_len(), 40);
        assert_eq!(truncated, vec![250, 251]);
        assert!(session.base().unwrap().len() == 100);
    }

    #[test]
    fn best_of_multiple_contexts_wins() {
        let (db, model) = db();
        let short = import_context(&db, &model, &[1, 2, 3, 4]);
        let held = db.context(short).unwrap();
        // Extends the first context's tokens, so it supersedes it.
        let long = import_context(&db, &model, &[1, 2, 3, 4, 5, 6, 7, 8]);
        import_context(&db, &model, &[9, 9, 9]);
        let (session, _) = db.create_session(&[1, 2, 3, 4, 5, 6, 99]);
        assert_eq!(session.reused_len(), 6);
        assert_eq!(session.base().unwrap().id, long);
        assert_eq!(db.n_contexts(), 2);
        assert!(db.context(short).is_none(), "superseded entries are gone");
        assert_eq!(held.tokens, [1, 2, 3, 4], "but a held handle stays whole");
        assert_eq!(db.stats().contexts_superseded(), 1);
        assert_eq!(db.stats().contexts_evicted(), 0);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn import_length_mismatch_panics() {
        let (db, model) = db();
        db.import(vec![1, 2], prefilled(&model, &[1, 2, 3]));
    }

    #[test]
    fn store_then_reuse_round_trip() {
        let (db, model) = db();
        // Run a session from scratch, then store it.
        let prompt: Vec<u32> = (30..80).collect();
        let (mut session, truncated) = db.create_session(&prompt);
        session.note_tokens(&truncated);
        let logits = model.prefill(&truncated, 0, &mut session);
        let generated = model.decode(logits, truncated.len(), 4, &mut session);
        session.note_tokens(&generated);
        let id = db.store(&session);

        let stored = db.context(id).unwrap();
        // The final generated token has no KV yet, so it is not stored.
        assert_eq!(stored.len(), 50 + generated.len() - 1);
        assert_eq!(&stored.tokens[..50], &prompt[..]);

        // A new session over the same prompt reuses the stored context.
        let (s2, trunc2) = db.create_session(&prompt);
        assert_eq!(s2.reused_len(), 49);
        assert_eq!(trunc2.len(), 1);
    }

    #[test]
    fn contexts_with_key_trained_graphs_are_counted() {
        let (db, model) = db();
        let fallbacks = || db.stats().graphs_without_queries();

        // A served session sampled queries on every head: its store trains
        // from them.
        let prompt: Vec<u32> = (30..80).collect();
        let (mut session, truncated) = db.create_session(&prompt);
        session.note_tokens(&truncated);
        let logits = model.prefill(&truncated, 0, &mut session);
        let generated = model.decode(logits, truncated.len(), 4, &mut session);
        session.note_tokens(&generated);
        let stored = db.store(&session);
        assert_eq!(db.context(stored).unwrap().key_trained_layers(), 0);
        assert_eq!(fallbacks(), 0);

        // So does an import that brings samples along.
        let other: Vec<u32> = (90..140).collect();
        let samples = session.query_samples();
        db.import_with_queries(other.clone(), prefilled(&model, &other), Some(samples));
        assert_eq!(fallbacks(), 0);

        // A bare KV cache has nothing to train from: every graph layer
        // falls back to sampled keys, and the context is counted once.
        for i in 1..=2u32 {
            let tokens: Vec<u32> = (50 * i + 100..50 * i + 150).collect();
            let id = import_context(&db, &model, &tokens);
            let graph_layers = model.config().n_layers - db.config().optimizer.flat_layers;
            assert_eq!(db.context(id).unwrap().key_trained_layers(), graph_layers);
            assert_eq!(fallbacks(), u64::from(i));
        }

        // An empty reservoir is the same fallback under another name.
        let cfg = model.config();
        let empty = QueryReservoir::new(cfg.n_layers, cfg.n_q_heads, cfg.head_dim, 8);
        let tokens: Vec<u32> = (0..25).collect();
        db.import_with_queries(tokens.clone(), prefilled(&model, &tokens), Some(&empty));
        assert_eq!(fallbacks(), 3);
    }

    /// Storing one session twice publishes equal contexts: the second
    /// supersedes the first (equal tokens), and its KV and adjacency are
    /// the first one's.
    #[test]
    fn storing_a_session_twice_supersedes_with_an_equal_context() {
        let (db, model) = db();
        let prompt: Vec<u32> = (30..80).collect();
        let (mut session, truncated) = db.create_session(&prompt);
        session.note_tokens(&truncated);
        let logits = model.prefill(&truncated, 0, &mut session);
        let generated = model.decode(logits, truncated.len(), 4, &mut session);
        session.note_tokens(&generated);

        let first = db.store(&session);
        // Hold the first context: the second store publishes the same
        // token sequence and supersedes it.
        let a = db.context(first).unwrap();
        let second = db.store(&session);
        assert_ne!(second, first);
        assert!(db.context(first).is_none());
        assert_eq!(db.stats().contexts_superseded(), 1);
        assert_eq!(db.n_contexts(), 1);

        let b = db.context(second).unwrap();
        assert_eq!(a.tokens, b.tokens);
        let (ka, kb) = (a.kv.head(0, 0), b.kv.head(0, 0));
        assert_eq!(ka.keys.as_flat(), kb.keys.as_flat());
        assert_eq!(ka.values.as_flat(), kb.values.as_flat());
        assert_eq!(a.graph_bytes(), b.graph_bytes());
        for layer in 0..a.kv.n_layers() {
            for h in 0..a.kv.n_kv_heads() {
                assert_eq!(
                    a.graph(layer, h),
                    b.graph(layer, h),
                    "adjacency at ({layer}, {h})"
                );
            }
        }
    }

    /// A store over a reused prefix allocates the merged KV at its exact
    /// size, so the budget charges rows, not `Vec` growth slack.
    #[test]
    fn stored_kv_is_allocated_at_its_exact_size() {
        let (db, model) = db();
        let stored: Vec<u32> = (0..51).collect();
        import_context(&db, &model, &stored);
        let mut prompt = stored.clone();
        prompt.extend(100..113);
        let (mut session, truncated) = db.create_session(&prompt);
        assert_eq!(session.reused_len(), 51);
        session.note_tokens(&truncated);
        model.prefill(&truncated, 51, &mut session);

        let ctx = db.context(db.store(&session)).unwrap();
        let m = model.config();
        let row_bytes = m.n_layers * m.n_kv_heads * m.head_dim * 4 * 2;
        assert_eq!(ctx.len(), 64);
        assert_eq!(ctx.kv_bytes(), (ctx.len() * row_bytes) as u64);
        assert_eq!(db.stats().context_bytes(), ctx.bytes());
    }

    /// A database whose budget holds `n` copies of a `len`-token context
    /// (and not `n + 1`).
    fn db_with_room_for(n: u64, len: u32) -> (Db, Model) {
        let (probe, model) = db();
        let id = import_context(&probe, &model, &(0..len).collect::<Vec<_>>());
        let bytes = probe.context(id).unwrap().bytes();
        let cfg = DbConfig {
            context_budget_bytes: n * bytes + bytes / 2,
            ..DbConfig::for_tests(model.config().clone())
        };
        (Db::new(cfg), model)
    }

    fn seq(first: u32, len: u32) -> Vec<u32> {
        (first..first + len).collect()
    }

    #[test]
    fn eviction_drops_the_least_recently_reused_context() {
        let (db, model) = db_with_room_for(2, 40);
        let a = import_context(&db, &model, &seq(0, 40));
        let b = import_context(&db, &model, &seq(100, 40));
        // Reusing `a` makes `b` the least recently reused.
        let (session, _) = db.create_session(&seq(0, 41));
        assert_eq!(session.base().unwrap().id, a);
        let c = import_context(&db, &model, &seq(200, 40));

        assert!(db.context(b).is_none(), "b was the LRU victim");
        assert!(db.context(a).is_some() && db.context(c).is_some());
        assert_eq!(db.stats().contexts_evicted(), 1);
        assert_eq!(db.stats().contexts_superseded(), 0);
        let resident = db.context(a).unwrap().bytes() + db.context(c).unwrap().bytes();
        assert_eq!(db.stats().context_bytes(), resident);
        assert!(resident <= db.config().context_budget_bytes);
    }

    #[test]
    fn a_context_larger_than_the_budget_is_kept_alone() {
        let (db, model) = db_with_room_for(1, 20);
        let small = import_context(&db, &model, &seq(0, 20));
        let big = import_context(&db, &model, &seq(100, 60));
        assert!(db.context(small).is_none());
        let big = db
            .context(big)
            .expect("the published context is never the victim");
        assert!(big.bytes() > db.config().context_budget_bytes);
        assert_eq!(db.n_contexts(), 1);
    }
}
