//! The `DB` abstraction: the manager of all stored contexts (Table 2).
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
//! the session lock and reserves the [`ContextId`] under the contexts
//! write lock). The background publish task is stricter than the order
//! above requires: it publishes (or abandons) its [`Reservation`] under
//! the contexts write lock and drops that guard before taking
//! `core.db.store_state`, so the two locks are never held together at all
//! (the tracing shim's acquisition graph shows no edge between them —
//! `tests/lock_tracing.rs` pins this down). Nothing may take a session or
//! contexts lock while holding the store-state lock ([`StoreHandle::wait`]
//! holds it only around the condvar). Scheduler context lookups
//! ([`Db::context`], [`Db::create_session`]) hold `core.db.contexts` alone
//! and release it before any attention runs, so publication by
//! [`Db::store_background`] can never order-invert against them.

use std::collections::{HashMap, HashSet};
use std::ops::Deref;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use alaya_device::memory::MemoryTracker;
use alaya_llm::kv::KvCache;
use alaya_telemetry::{Counter, Registry};
use parking_lot::{Condvar, Mutex, RwLock};

use crate::config::DbConfig;
use crate::session::Session;
use crate::stored::{ContextId, QueryReservoir, StoredContext};

/// Stored contexts in insertion order plus an id-keyed map, so
/// [`Db::context`] is O(1) under serving load while prefix matching keeps
/// a deterministic (insertion-order) tie-break.
#[derive(Default)]
struct ContextTable {
    order: Vec<Arc<StoredContext>>,
    by_id: HashMap<ContextId, usize>,
    /// Ids handed to an in-flight `import`/`store` still building its
    /// context outside the lock; `adopt` must treat them as taken even
    /// though they are not in `by_id` yet.
    reserved: HashSet<ContextId>,
}

impl ContextTable {
    fn insert(&mut self, ctx: Arc<StoredContext>) {
        let prev = self.by_id.insert(ctx.id, self.order.len());
        debug_assert!(
            prev.is_none(),
            "duplicate ContextId {:?} in ContextTable",
            ctx.id
        );
        self.order.push(ctx);
    }

    fn get(&self, id: ContextId) -> Option<&Arc<StoredContext>> {
        self.by_id.get(&id).map(|&i| &self.order[i])
    }
}

/// Lifetime counters for one [`Db`] — telemetry cells, registerable into
/// an engine's metric registry via [`DbStats::register_into`].
#[derive(Default)]
pub struct DbStats {
    sessions_created: Arc<Counter>,
    contexts_imported: Arc<Counter>,
    contexts_adopted: Arc<Counter>,
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
        registry.register_counter("core.db.store_failures", &self.store_failures);
    }
}

/// An AlayaDB instance: stored contexts (prompts, KV caches, vector
/// indexes) plus the machinery to open sessions against them.
pub struct Db {
    cfg: DbConfig,
    contexts: RwLock<ContextTable>,
    next_id: AtomicU64,
    stats: DbStats,
}

impl Db {
    /// Opens an empty database.
    pub fn new(cfg: DbConfig) -> Self {
        cfg.model.validate();
        Self {
            cfg,
            contexts: RwLock::new_named(ContextTable::default(), "core.db.contexts"),
            next_id: AtomicU64::new(0),
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

    /// Number of stored contexts.
    pub fn n_contexts(&self) -> usize {
        self.contexts.read().order.len()
    }

    /// Fetches a stored context by id — an O(1) map lookup. The returned
    /// `Arc` is a lock-free handle: attention over the context never holds
    /// the DB-wide lock.
    pub fn context(&self, id: ContextId) -> Option<Arc<StoredContext>> {
        self.contexts.read().get(id).cloned()
    }

    /// `DB.create_session(prompts)`: opens a session, reusing the longest
    /// common token prefix among stored contexts. Returns the session and
    /// the *truncated* prompt — the suffix the engine still has to prefill
    /// (always at least one token, so the engine can produce logits).
    pub fn create_session(&self, prompt: &[u32]) -> (Session, Vec<u32>) {
        assert!(!prompt.is_empty(), "prompt must contain at least one token");
        self.stats.sessions_created.inc();
        let contexts = self.contexts.read();
        let best = contexts
            .order
            .iter()
            .map(|c| (c.common_prefix_len(prompt), c))
            .max_by_key(|(lcp, _)| *lcp)
            .filter(|(lcp, _)| *lcp > 0);

        match best {
            Some((lcp, ctx)) => {
                // Keep at least one prompt token for the engine.
                let reused = lcp.min(prompt.len() - 1);
                if reused == 0 {
                    return (Session::new(self.cfg.clone(), None, 0), prompt.to_vec());
                }
                let session = Session::new(self.cfg.clone(), Some(Arc::clone(ctx)), reused);
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
        // build drops the reservation unpublished.
        let reservation = Reservation::new(self);
        let id = reservation.id;
        let ctx = StoredContext::build(id, tokens, kv, queries, &self.cfg);
        reservation.publish(ctx);
        id
    }

    /// Adopts an externally assembled context (e.g. one loaded from the
    /// vector file system by [`crate::persist::load_context`]) into this
    /// DB's reuse pool. The context keeps its original id if it does not
    /// collide with a stored *or in-flight* context; otherwise it is
    /// re-numbered.
    pub fn adopt(&self, mut ctx: StoredContext) -> ContextId {
        // Every allocation path touches `next_id` under this write lock
        // (`import`/`store` also register in-flight ids in `reserved`), so
        // holding it across the check and the insert makes the collision
        // test exact — no id can be claimed or inserted concurrently.
        let mut contexts = self.contexts.write();
        if contexts.by_id.contains_key(&ctx.id) || contexts.reserved.contains(&ctx.id) {
            ctx.id = ContextId(self.next_id.fetch_add(1, Ordering::Relaxed));
        } else {
            // Keep the allocator ahead of adopted ids.
            self.next_id.fetch_max(ctx.id.0 + 1, Ordering::Relaxed);
        }
        let id = ctx.id;
        contexts.insert(Arc::new(ctx));
        self.stats.contexts_adopted.inc();
        id
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
        let kv = merge_session_kv(
            &self.cfg,
            session.base(),
            session.reused_len(),
            session.local_kv(),
        );
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
    /// partial — so a huge `store()` cannot stall co-batched tenants.
    ///
    /// The returned [`StoreHandle`] carries the reserved [`ContextId`] up
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

        let reservation = Reservation::new(Arc::clone(self));
        let id = reservation.id;

        let shared = Arc::new(StoreShared {
            state: Mutex::new_named(StoreState::Pending, "core.db.store_state"),
            cv: Condvar::new(),
        });
        let task_shared = Arc::clone(&shared);
        alaya_device::pool::global().execute(move || {
            let cfg = &reservation.db.cfg;
            let built = catch_unwind(AssertUnwindSafe(|| {
                let kv = merge_session_kv(cfg, base.as_ref(), reused_len, &local);
                StoredContext::build(id, tokens, kv, Some(&queries), cfg)
            }));
            // The contexts write lock (inside publish/drop) is released
            // before the store-state lock below is taken.
            let state = match built {
                Ok(ctx) => {
                    reservation.publish(ctx);
                    StoreState::Ready
                }
                Err(payload) => {
                    reservation.db.stats.store_failures.inc();
                    drop(reservation);
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

/// A [`ContextId`] handed out while its context still builds outside the
/// contexts lock: `adopt` treats it as taken. Ending the reservation —
/// [`Reservation::publish`] or a plain drop (build panicked, task never
/// ran) — un-reserves the id and, when a context was built, inserts it
/// under one write-lock hold, so the context becomes visible in the same
/// atomic step that releases the reservation.
struct Reservation<D: Deref<Target = Db>> {
    db: D,
    id: ContextId,
    built: Option<StoredContext>,
}

impl<D: Deref<Target = Db>> Reservation<D> {
    fn new(db: D) -> Self {
        let id = {
            let mut contexts = db.contexts.write();
            let id = ContextId(db.next_id.fetch_add(1, Ordering::Relaxed));
            contexts.reserved.insert(id);
            id
        };
        Self {
            db,
            id,
            built: None,
        }
    }

    fn publish(mut self, ctx: StoredContext) {
        self.built = Some(ctx);
    }
}

impl<D: Deref<Target = Db>> Drop for Reservation<D> {
    fn drop(&mut self) {
        let mut contexts = self.db.contexts.write();
        contexts.reserved.remove(&self.id);
        if let Some(ctx) = self.built.take() {
            contexts.insert(Arc::new(ctx));
            self.db.stats.contexts_imported.inc();
        }
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
    cfg: &DbConfig,
    base: Option<&Arc<StoredContext>>,
    reused_len: usize,
    local: &KvCache,
) -> KvCache {
    let model = &cfg.model;
    let mut kv = match base {
        Some(base) => base.kv.prefix(reused_len),
        None => KvCache::new(model.n_layers, model.n_kv_heads, model.head_dim),
    };
    for layer in 0..model.n_layers {
        for kvh in 0..model.n_kv_heads {
            let src = local.head(layer, kvh);
            let dst = kv.head_mut(layer, kvh);
            for j in 0..src.len() {
                dst.push(src.keys.row(j), src.values.row(j));
            }
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

    /// Prefills `tokens` with the full backend and imports the KV into `db`.
    fn import_context(db: &Db, model: &Model, tokens: &[u32]) -> ContextId {
        let mut backend = FullKvBackend::new(model.config());
        model.prefill(tokens, 0, &mut backend);
        db.import(tokens.to_vec(), backend.into_cache())
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
        import_context(&db, &model, &[1, 2, 3, 4]);
        import_context(&db, &model, &[1, 2, 3, 4, 5, 6, 7, 8]);
        import_context(&db, &model, &[9, 9, 9]);
        let (session, _) = db.create_session(&[1, 2, 3, 4, 5, 6, 99]);
        assert_eq!(session.reused_len(), 6);
        assert_eq!(db.n_contexts(), 3);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn import_length_mismatch_panics() {
        let (db, model) = db();
        let mut backend = FullKvBackend::new(model.config());
        model.prefill(&[1, 2, 3], 0, &mut backend);
        db.import(vec![1, 2], backend.into_cache());
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
        let handle = db.store_background(&session);
        assert_eq!(handle.wait(), Ok(handle.id()));
        assert!(handle.is_finished());
        assert_ne!(handle.id(), sync_id);

        // Identical snapshot → identical published context (modulo id).
        let a = db.context(sync_id).unwrap();
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
        assert_eq!(db.n_contexts(), 2);
    }
}
