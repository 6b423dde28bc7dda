//! The `DB` abstraction: the manager of all stored contexts (Table 2).
//!
//! # Stored contexts are a bounded cache
//!
//! Publishing a context (`import`, `store`, `store_background`, `adopt`)
//! is a cache insert. Under the one `core.db.contexts` write-lock hold
//! that makes the new context visible, two rules run:
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
//! # Canonical lock order
//!
//! Threads that nest lock acquisitions involving the DB must follow the
//! workspace-wide order (outermost first), which the `instrumented` CI
//! job enforces dynamically via the shim's acquisition-order graph:
//!
//! ```text
//! serve.sessions → serve.session → serve.growth
//!                → core.db.contexts → core.db.store_state
//!                → device.pool.* / storage.*          (leaves)
//! ```
//!
//! Concretely for this module: `core.db.contexts` may be taken while a
//! session lock is held (`ServeEngine::store_background` snapshots under
//! the session lock and allocates the [`ContextId`] under the contexts
//! write lock). The background publish task is stricter than the order
//! above requires: it publishes under the contexts write lock and drops
//! that guard before taking `core.db.store_state`, so the two locks are
//! never held together at all (the tracing shim's acquisition graph shows
//! no edge between them — `tests/lock_tracing.rs` pins this down). Nothing
//! may take a session or contexts lock while holding the store-state lock
//! ([`StoreHandle::wait`] holds it only around the condvar). Scheduler
//! context lookups ([`Db::context`], [`Db::create_session`]) hold
//! `core.db.contexts` alone and release it before any attention runs, so
//! publication by [`Db::store_background`] can never order-invert against
//! them.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use alaya_device::memory::MemoryTracker;
use alaya_llm::kv::{HeadKv, KvCache};
use alaya_telemetry::{Counter, Gauge, Registry};
use parking_lot::{Condvar, Mutex, RwLock};

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

/// Lifetime counters for one [`Db`] — telemetry cells, registerable into
/// an engine's metric registry via [`DbStats::register_into`].
#[derive(Default)]
pub struct DbStats {
    sessions_created: Arc<Counter>,
    contexts_imported: Arc<Counter>,
    contexts_adopted: Arc<Counter>,
    contexts_superseded: Arc<Counter>,
    contexts_evicted: Arc<Counter>,
    context_bytes: Arc<Gauge>,
    graphs_without_queries: Arc<Counter>,
    store_failures: Arc<Counter>,
}

impl DbStats {
    /// Sessions opened via [`Db::create_session`].
    pub fn sessions_created(&self) -> u64 {
        self.sessions_created.get()
    }
    /// Contexts published through `import`/`store` (sync or background).
    pub fn contexts_imported(&self) -> u64 {
        self.contexts_imported.get()
    }
    /// Contexts adopted from external assembly ([`Db::adopt`]).
    pub fn contexts_adopted(&self) -> u64 {
        self.contexts_adopted.get()
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
    /// Background store builds that panicked instead of publishing.
    pub fn store_failures(&self) -> u64 {
        self.store_failures.get()
    }
    /// Attaches these cells to `registry` under `core.db.*`. First
    /// registration wins; the getters read the same cells either way.
    pub fn register_into(&self, registry: &Registry) {
        registry.register_counter("core.db.sessions_created", &self.sessions_created);
        registry.register_counter("core.db.contexts_imported", &self.contexts_imported);
        registry.register_counter("core.db.contexts_adopted", &self.contexts_adopted);
        registry.register_counter("core.db.contexts_superseded", &self.contexts_superseded);
        registry.register_counter("core.db.contexts_evicted", &self.contexts_evicted);
        registry.register_gauge("core.db.context_bytes", &self.context_bytes);
        registry.register_counter(
            "core.db.graphs_without_queries",
            &self.graphs_without_queries,
        );
        registry.register_counter("core.db.store_failures", &self.store_failures);
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

    /// Adopts an externally assembled context (e.g. one loaded from the
    /// vector file system by [`crate::persist::load_context`]) into this
    /// DB's reuse pool. The context keeps its original id only when this
    /// DB never handed that id out; otherwise it is re-numbered — an id
    /// absent from the table may still name an evicted context that open
    /// sessions serve from, and the scheduler groups shared plans by it.
    /// (Ids in the upper half of the space are re-numbered too, so a
    /// corrupt persisted id cannot walk the allocator into overflow.)
    pub fn adopt(&self, mut ctx: StoredContext) -> ContextId {
        let bytes = ctx.bytes();
        let (id, _removed) = {
            let mut contexts = self.contexts.write();
            if (contexts.next_id..u64::MAX / 2).contains(&ctx.id.0) {
                // Keep the allocator ahead of adopted ids.
                contexts.next_id = ctx.id.0 + 1;
            } else {
                ctx.id = contexts.alloc_id();
            }
            (ctx.id, self.insert_locked(&mut contexts, ctx, bytes))
        };
        self.stats.contexts_adopted.inc();
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
        let _removed = {
            let mut contexts = self.contexts.write();
            self.insert_locked(&mut contexts, ctx, bytes)
        };
        self.stats.contexts_imported.inc();
    }

    /// The cache insert, on an already held write lock. Returns the
    /// removed entries so the caller frees their KV and graphs after it
    /// released the lock.
    fn insert_locked(
        &self,
        contexts: &mut ContextTable,
        ctx: StoredContext,
        bytes: u64,
    ) -> Removed {
        let removed = contexts.insert(ctx, bytes, self.cfg.context_budget_bytes);
        self.stats
            .contexts_superseded
            .add(removed.superseded.len() as u64);
        self.stats
            .contexts_evicted
            .add(removed.evicted.len() as u64);
        self.stats.context_bytes.set(contexts.bytes as i64);
        removed
    }

    /// `DB.store(session)`: materializes the session's full state — reused
    /// prefix plus the session-local window — into a new stored, indexed
    /// context (the late-materialization point, §7.2).
    ///
    /// # Panics
    /// Panics if the session's noted tokens do not cover its full sequence
    /// (call [`Session::note_tokens`] during generation).
    pub fn store(&self, session: &Session) -> ContextId {
        let total = validate_store_coverage(session);
        let kv = merge_session_kv(session.base(), session.reused_len(), session.local_kv());
        self.import_with_queries(
            session.tokens()[..total].to_vec(),
            kv,
            Some(session.query_samples()),
        )
    }

    /// Copy-on-write [`Db::store`]: snapshots the session's state (cheap —
    /// the reused prefix is shared by `Arc`, only the local window and
    /// query samples are cloned), then runs the KV merge and index build on
    /// the shared [`alaya_device::pool`] and publishes the finished context
    /// atomically through the context table. Readers ([`Db::context`],
    /// [`Db::create_session`]) keep serving existing contexts throughout:
    /// the new context is either entirely absent or entirely built, never
    /// partial — so a huge `store()` cannot stall co-batched tenants. The
    /// snapshot's `Arc` also keeps the reused prefix alive if it is evicted
    /// while the build runs.
    ///
    /// The returned [`StoreHandle`] carries the allocated [`ContextId`] up
    /// front; [`StoreHandle::wait`] blocks until the context is published
    /// (or the build failed).
    ///
    /// # Panics
    /// Panics (synchronously) under the same conditions as [`Db::store`].
    pub fn store_background(self: &Arc<Self>, session: &Session) -> StoreHandle {
        let total = validate_store_coverage(session);

        // Snapshot while the caller still holds whatever session lock it
        // serializes on; everything below is O(local window), not O(context).
        let tokens = session.tokens()[..total].to_vec();
        let base = session.base().cloned();
        let reused_len = session.reused_len();
        let local = session.local_kv().clone();
        let queries = session.query_samples().clone();

        let db = Arc::clone(self);
        let id = db.alloc_id();

        let shared = Arc::new(StoreShared {
            state: Mutex::new_named(StoreState::Pending, "core.db.store_state"),
            cv: Condvar::new(),
        });
        let task_shared = Arc::clone(&shared);
        alaya_device::pool::global().execute(move || {
            let built = catch_unwind(AssertUnwindSafe(|| {
                let kv = merge_session_kv(base.as_ref(), reused_len, &local);
                StoredContext::build(id, tokens, kv, Some(&queries), &db.cfg)
            }));
            // The contexts write lock (inside publish) is released before
            // the store-state lock below is taken.
            let state = match built {
                Ok(ctx) => {
                    db.publish(ctx);
                    StoreState::Ready
                }
                Err(payload) => {
                    db.stats.store_failures.inc();
                    StoreState::Failed(StoreError {
                        message: panic_message(payload.as_ref()),
                    })
                }
            };
            *task_shared.state.lock() = state;
            task_shared.cv.notify_all();
        });

        StoreHandle { id, shared }
    }
}

/// Panics unless [`Session::storable_len`] holds; returns that length.
fn validate_store_coverage(session: &Session) -> usize {
    let total = session.total_len();
    assert!(
        session.storable_len().is_some(),
        "session knows {} tokens but holds {} positions; call note_tokens()",
        session.tokens().len(),
        total
    );
    total
}

/// Merges a session's reused-prefix KV with its local window into one cache
/// — the copy half of `DB.store` (the index build is the other).
fn merge_session_kv(
    base: Option<&Arc<StoredContext>>,
    reused_len: usize,
    local: &KvCache,
) -> KvCache {
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
    kv
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "store task panicked".to_string()
    }
}

/// A background store whose KV merge or index build panicked: no context
/// was published. Carries the panic's message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StoreError {
    /// The build panic's message.
    pub message: String,
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "store build panicked: {}", self.message)
    }
}

impl std::error::Error for StoreError {}

/// Completion state of one background store.
enum StoreState {
    Pending,
    Ready,
    Failed(StoreError),
}

struct StoreShared {
    state: Mutex<StoreState>,
    cv: Condvar,
}

/// Handle to an in-flight [`Db::store_background`] build.
pub struct StoreHandle {
    id: ContextId,
    shared: Arc<StoreShared>,
}

impl StoreHandle {
    /// The id the finished context will be published under. Until
    /// [`StoreHandle::wait`] returns (or [`Db::context`] starts answering
    /// for it), the id resolves to nothing.
    pub fn id(&self) -> ContextId {
        self.id
    }

    /// Whether the build has finished (successfully or not) — never blocks.
    pub fn is_finished(&self) -> bool {
        !matches!(*self.shared.state.lock(), StoreState::Pending)
    }

    /// Blocks until the context is published; returns its id, or the build
    /// failure.
    pub fn wait(&self) -> Result<ContextId, StoreError> {
        let mut state = self.shared.state.lock();
        loop {
            match &*state {
                StoreState::Pending => self.shared.cv.wait(&mut state),
                StoreState::Ready => return Ok(self.id),
                StoreState::Failed(err) => return Err(err.clone()),
            }
        }
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

    #[test]
    fn store_background_matches_sync_store() {
        let (db, model) = db();
        let db = Arc::new(db);
        let prompt: Vec<u32> = (30..80).collect();
        let (mut session, truncated) = db.create_session(&prompt);
        session.note_tokens(&truncated);
        let logits = model.prefill(&truncated, 0, &mut session);
        let generated = model.decode(logits, truncated.len(), 4, &mut session);
        session.note_tokens(&generated);

        let sync_id = db.store(&session);
        // Hold the first context: the second store publishes the same
        // token sequence and supersedes it.
        let a = db.context(sync_id).unwrap();
        let handle = db.store_background(&session);
        assert_eq!(handle.wait(), Ok(handle.id()));
        assert!(handle.is_finished());
        assert_ne!(handle.id(), sync_id);

        // Identical snapshot → identical published context (modulo id).
        assert!(db.context(sync_id).is_none());
        let b = db.context(handle.id()).unwrap();
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
        assert_eq!(db.n_contexts(), 1);
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

    /// With eviction, "absent from the table" no longer means "never
    /// used": adopt must not hand a live session's base id to another
    /// context.
    #[test]
    fn adopt_never_reissues_an_id() {
        let (db, model) = db_with_room_for(1, 40);
        let x = import_context(&db, &model, &seq(0, 40));
        let (session, _) = db.create_session(&seq(0, 41));
        import_context(&db, &model, &seq(100, 40));
        assert!(db.context(x).is_none(), "x was evicted");
        assert_eq!(
            session.base().unwrap().id,
            x,
            "and a session still holds it"
        );

        // A context persisted under x's id comes back under a fresh one.
        let persisted = |id: u64, first: u32| {
            let tokens = seq(first, 40);
            let kv = prefilled(&model, &tokens);
            StoredContext::build(ContextId(id), tokens, kv, None, db.config())
        };
        let fresh = db.adopt(persisted(x.0, 200));
        assert_eq!(fresh, ContextId(2), "renumbered past every id handed out");
        assert_eq!(db.context(fresh).unwrap().tokens, seq(200, 40));

        // An id this DB never handed out is kept, and the allocator moves
        // past it.
        assert_eq!(db.adopt(persisted(7, 50)), ContextId(7));
        assert_eq!(import_context(&db, &model, &seq(150, 40)), ContextId(8));
        // One that would leave the allocator no room is not.
        assert_eq!(db.adopt(persisted(u64::MAX, 10)), ContextId(9));
        assert_eq!(db.stats().contexts_adopted(), 3);
    }
}
