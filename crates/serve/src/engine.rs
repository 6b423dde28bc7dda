//! [`ServeEngine`]: the multi-tenant front door over one [`Db`].
//!
//! The engine owns admitted sessions behind small integer handles so many
//! threads can drive many sessions concurrently: `update` mutates exactly
//! one session under its own lock, `attention` submits to the scheduler
//! (which batches and plans across sessions — see [`crate::scheduler`]),
//! blocks on a per-request channel for its job and executes it on the
//! calling thread with its share of the pool, `store` materializes it on
//! the calling thread, and `close` ends it and releases its device
//! reservation.

use std::any::Any;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::RwLock;

use alaya_core::session::{execute, AttentionJob};
use alaya_core::stored::ContextId;
use alaya_core::Db;
use alaya_device::clock::Clock;
use alaya_device::memory::MemoryTracker;
use alaya_device::pool::{self, PoolStats, WorkStealingPool};
use alaya_llm::backend::{AttentionBackend, StepInput};

use crate::admission::{per_token_bytes, session_bytes};
use crate::scheduler::{
    self, close_span, Job, Pending, SchedulerCore, ServeError, SessionSlot, SlotState, SpanEnd,
};
use crate::telemetry::TelemetrySnapshot;

/// Failpoint: a requester panics inside the containment wrapper around
/// its job's execution, the way a panicking head would, whatever the share
/// of the pool its heads run on.
#[cfg(feature = "instrumented")]
pub const CHAOS_EXEC_PANIC: &str = "serve.exec.panic";

/// Handle to a session admitted into a [`ServeEngine`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(pub u64);

/// Engine construction options.
///
/// The defaults serve without shedding: no deadlines, dispatch
/// immediately, and a bound of 4096 queued requests — sized to stay
/// invisible until the server is genuinely drowning, at which point
/// submissions get typed [`ServeError::Overloaded`] backpressure instead
/// of queueing without bound. The dispatch window, deadline and queue
/// bound are explicit policy; the batch bound is the fixed
/// [`MAX_BATCH`](crate::scheduler::MAX_BATCH), and the execution estimate
/// behind `retry_after_hint` and the deadline-shedding margin is measured
/// (an EWMA of observed batch times), never configured.
#[derive(Clone)]
pub struct ServeConfig {
    /// Worker threads for execution. `0` (the default) shares the
    /// process-wide pool; a positive count builds a dedicated pool (useful
    /// for benchmark sweeps and required for worker-panic chaos injection).
    pub threads: usize,
    /// Session-local KV cap used to size each session's admission
    /// reservation (see [`crate::admission::session_bytes`]). Default 256.
    pub max_local_tokens: usize,
    /// Tracker admissions are charged against; defaults to the DB's GPU
    /// tracker, so admitted sessions and the query optimizer see one
    /// consistent budget.
    pub admission: Option<Arc<MemoryTracker>>,
    /// How long an under-full batch lingers for batchmates. Zero (the
    /// default) dispatches whatever is queued immediately.
    pub dispatch_window: Duration,
    /// Deadline applied to every `attention` submission (relative to
    /// enqueue). `None` (the default): requests never expire. Per-request
    /// deadlines via [`ServeEngine::attention_with_deadline`] override
    /// this.
    pub default_deadline: Option<Duration>,
    /// Queue-depth bound in requests (at least 1); submissions beyond it
    /// are rejected with [`ServeError::Overloaded`]. Default 4096.
    pub max_queue_requests: usize,
    /// Time source for deadlines and dispatch windows. `None` (the
    /// default) uses the monotonic
    /// [`SystemClock`](alaya_device::clock::SystemClock); the substitution seam
    /// for a [`ManualClock`](alaya_device::clock::ManualClock).
    pub clock: Option<Arc<dyn Clock>>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            threads: 0,
            max_local_tokens: 256,
            admission: None,
            dispatch_window: Duration::ZERO,
            default_deadline: None,
            max_queue_requests: 4096,
            clock: None,
        }
    }
}

/// A concurrent multi-session serving engine over one [`Db`].
pub struct ServeEngine {
    db: Arc<Db>,
    /// Tracker admissions and their growth are charged against.
    tracker: Arc<MemoryTracker>,
    /// Device bytes reserved per admitted session
    /// ([`session_bytes`](crate::admission::session_bytes)).
    session_bytes: u64,
    sessions: RwLock<HashMap<SessionId, Arc<SessionSlot>>>,
    /// `sessions.len()`, stored under its write guard, so a requester
    /// sizes its share of the pool without taking the table's lock.
    live: AtomicUsize,
    next_id: AtomicU64,
    /// The pool a requester fans a long request's heads out over.
    pool: Arc<WorkStealingPool>,
    core: Arc<SchedulerCore>,
    scheduler: Option<JoinHandle<()>>,
    /// Local-KV tokens the admission reservation and each growth of it
    /// cover.
    reserve_tokens: usize,
    /// Device bytes per local-KV token, for reservation growth.
    per_token: u64,
    /// Deadline stamped on every submission without an explicit one.
    default_deadline: Option<Duration>,
}

impl ServeEngine {
    /// Creates an engine with default options.
    pub fn new(db: Arc<Db>) -> Self {
        Self::with_options(db, ServeConfig::default())
    }

    /// Creates an engine with explicit options.
    pub fn with_options(db: Arc<Db>, opts: ServeConfig) -> Self {
        let pool: Arc<WorkStealingPool> = if opts.threads == 0 {
            Arc::clone(pool::global())
        } else {
            Arc::new(WorkStealingPool::new(opts.threads))
        };
        let core = Arc::new(SchedulerCore::new(&opts));
        let tracker = opts.admission.unwrap_or_else(|| Arc::clone(db.gpu()));
        let sched_core = Arc::clone(&core);
        let scheduler = std::thread::Builder::new()
            .name("alaya-serve-scheduler".into())
            .spawn(move || scheduler::run(sched_core))
            .expect("spawning scheduler thread");
        let per_token = per_token_bytes(db.config());
        Self {
            session_bytes: session_bytes(db.config(), opts.max_local_tokens),
            db,
            tracker,
            sessions: RwLock::new_named(HashMap::new(), "serve.sessions"),
            live: AtomicUsize::new(0),
            next_id: AtomicU64::new(0),
            pool,
            core,
            scheduler: Some(scheduler),
            reserve_tokens: opts.max_local_tokens.max(1),
            per_token,
            default_deadline: opts.default_deadline,
        }
    }

    /// The underlying database.
    pub fn db(&self) -> &Arc<Db> {
        &self.db
    }

    /// A point-in-time telemetry snapshot: the scheduler counters (span
    /// lifecycle counts included), the per-stage span histograms
    /// (`queue`/`plan`/`exec`/`total`) and the calibrated execution
    /// estimate. The DB's counters are [`Db::stats`], the pool's
    /// [`ServeEngine::pool_stats`].
    pub fn telemetry(&self) -> TelemetrySnapshot {
        TelemetrySnapshot::collect(&self.core.stats)
    }

    /// The counters of the pool requests fan out over: the engine's own
    /// when [`ServeConfig::threads`] is positive, otherwise the
    /// process-wide pool's, which every user of that pool moves.
    pub fn pool_stats(&self) -> &PoolStats {
        self.pool.stats()
    }

    /// Arms deterministic fault injection: the scheduler and every
    /// requester probe `chaos` at their failpoints, and — when this engine
    /// owns a dedicated pool (`threads > 0`) — so do the pool's tasks. The
    /// process-wide pool is deliberately left alone: injecting panics into
    /// workers shared with unrelated tests would make chaos non-hermetic.
    /// First call wins; later calls are ignored.
    #[cfg(feature = "instrumented")]
    pub fn inject_chaos(&self, chaos: Arc<alaya_chaos::Chaos>) {
        let _ = self.core.chaos.set(Arc::clone(&chaos));
        if !Arc::ptr_eq(&self.pool, pool::global()) {
            self.pool.inject_chaos(chaos);
        }
    }

    /// Sessions currently admitted.
    pub fn n_sessions(&self) -> usize {
        self.live.load(Ordering::Relaxed)
    }

    /// Admits a session for `prompt`: reserves its device bytes first
    /// (returning [`ServeError::OutOfMemory`] when the budget is full),
    /// then opens the session with the DB's longest-prefix reuse. Returns
    /// the handle and the truncated prompt still to prefill. An empty
    /// prompt is [`ServeError::EmptyPrompt`] and reserves nothing.
    pub fn admit(&self, prompt: &[u32]) -> Result<(SessionId, Vec<u32>), ServeError> {
        if prompt.is_empty() {
            return Err(ServeError::EmptyPrompt);
        }
        let reservation = self.tracker.alloc(self.session_bytes)?;
        let (session, truncated) = self.db.create_session(prompt);
        let slot = Arc::new(SessionSlot::new(SlotState {
            session,
            covered_tokens: self.reserve_tokens,
            reservation,
        }));
        let id = SessionId(self.next_id.fetch_add(1, Ordering::Relaxed));
        let mut sessions = self.sessions.write();
        sessions.insert(id, slot);
        self.live.store(sessions.len(), Ordering::Relaxed);
        Ok((id, truncated))
    }

    /// Rejects an out-of-range layer index with a typed error.
    fn check_layer(&self, layer: usize) -> Result<(), ServeError> {
        let n_layers = self.db.config().model.n_layers;
        if layer >= n_layers {
            return Err(ServeError::InvalidLayer { layer, n_layers });
        }
        Ok(())
    }

    /// Rejects a tensor that does not match the model geometry — malformed
    /// shapes must never reach a session (half-mutated KV) or a batch
    /// (a panic there aborts every co-batched tenant's request).
    fn check_shape(
        &self,
        tensor: &[Vec<f32>],
        what: &'static str,
        expected_heads: usize,
    ) -> Result<(), ServeError> {
        let expected_dim = self.db.config().model.head_dim;
        if tensor.len() != expected_heads || tensor.iter().any(|t| t.len() != expected_dim) {
            return Err(ServeError::InvalidShape {
                what,
                expected_heads,
                expected_dim,
            });
        }
        Ok(())
    }

    fn slot(&self, id: SessionId) -> Result<Arc<SessionSlot>, ServeError> {
        self.sessions
            .read()
            .get(&id)
            .cloned()
            .ok_or(ServeError::UnknownSession(id))
    }

    /// Appends one step's K/V (and query samples) to the session — the
    /// `Session.update` half of the Table 2 contract.
    ///
    /// Admission only reserved `max_local_tokens` of local KV; a decode
    /// that outgrows that window must keep the tracker honest, so this
    /// grows the session's reservation by another `max_local_tokens` chunk
    /// *before* the write and fails closed with [`ServeError::OutOfMemory`]
    /// (leaving the session unchanged) when the device budget cannot cover
    /// the growth.
    pub fn update(
        &self,
        id: SessionId,
        queries: &[Vec<f32>],
        keys: &[Vec<f32>],
        values: &[Vec<f32>],
        layer: usize,
    ) -> Result<(), ServeError> {
        self.append(id, queries, keys, values, layer).map(|_| ())
    }

    /// `update`, returning the slot for an attention request that follows.
    fn append(
        &self,
        id: SessionId,
        queries: &[Vec<f32>],
        keys: &[Vec<f32>],
        values: &[Vec<f32>],
        layer: usize,
    ) -> Result<Arc<SessionSlot>, ServeError> {
        self.check_layer(layer)?;
        let model = &self.db.config().model;
        self.check_shape(queries, "query", model.n_q_heads)?;
        self.check_shape(keys, "key", model.n_kv_heads)?;
        self.check_shape(values, "value", model.n_kv_heads)?;
        let slot = self.slot(id)?;
        let mut state = slot.lock();
        let session = &state.session;
        let local_after = session.seq_len(layer) + 1 - session.reused_len();
        if local_after > state.covered_tokens {
            let chunk = self.reserve_tokens;
            state.reservation.grow(self.per_token * chunk as u64)?;
            state.covered_tokens += chunk;
        }
        state.session.update(queries, keys, values, layer);
        drop(state);
        Ok(slot)
    }

    /// Records token ids for a later [`ServeEngine::store`].
    pub fn note_tokens(&self, id: SessionId, tokens: &[u32]) -> Result<(), ServeError> {
        self.slot(id)?.lock().session.note_tokens(tokens);
        Ok(())
    }

    /// Computes attention for every query head at `layer` through the
    /// scheduler: the request is batched with whatever other sessions are
    /// asking at the same moment and planned once per group, then executed
    /// on this thread over a snapshot of the session. Its heads may occupy
    /// the pool's workers divided by the admitted sessions, at least one:
    /// with as many sessions as workers or more, they all run on this
    /// thread and leave the other cores to the other sessions; with fewer,
    /// a long request's heads fan out over the pool. Blocks until the
    /// output is computed. Outputs are bitwise-identical to
    /// `Session::attention_sequential`.
    ///
    /// Carries the engine's default deadline (if any). May return the
    /// overload-control errors [`ServeError::Overloaded`] (queue full —
    /// the request was never queued) and [`ServeError::DeadlineExceeded`]
    /// (queued past its deadline and shed); both are
    /// [`ServeError::is_retryable`].
    pub fn attention(
        &self,
        id: SessionId,
        queries: &[Vec<f32>],
        layer: usize,
    ) -> Result<Vec<Vec<f32>>, ServeError> {
        self.submit(id, queries, layer, self.default_deadline)
    }

    /// [`ServeEngine::attention`] with an explicit deadline
    /// (relative to now): if the request is still queued when the deadline
    /// can no longer be met, it is shed with
    /// [`ServeError::DeadlineExceeded`] instead of executing late.
    pub fn attention_with_deadline(
        &self,
        id: SessionId,
        queries: &[Vec<f32>],
        layer: usize,
        deadline: Duration,
    ) -> Result<Vec<Vec<f32>>, ServeError> {
        self.submit(id, queries, layer, Some(deadline))
    }

    fn submit(
        &self,
        id: SessionId,
        queries: &[Vec<f32>],
        layer: usize,
        deadline: Option<Duration>,
    ) -> Result<Vec<Vec<f32>>, ServeError> {
        self.check_layer(layer)?;
        self.check_shape(queries, "query", self.db.config().model.n_q_heads)?;
        self.enqueue(self.slot(id)?, queries, layer, deadline)
    }

    /// Queues a checked request, blocks until the scheduler hands back its
    /// job, and runs it on this thread with the pool's workers divided by
    /// the live sessions as its share.
    fn enqueue(
        &self,
        slot: Arc<SessionSlot>,
        queries: &[Vec<f32>],
        layer: usize,
        deadline: Option<Duration>,
    ) -> Result<Vec<Vec<f32>>, ServeError> {
        let enqueued = self.core.clock.now();
        let (tx, rx) = mpsc::channel();
        self.core.enqueue(Pending {
            slot: Arc::clone(&slot),
            layer,
            reply: tx,
            enqueued,
            deadline: deadline.map(|d| enqueued.saturating_add(d)),
        })?;
        let job = rx.recv().map_err(|_| ServeError::ShuttingDown)??;
        let share = (self.pool.threads() / self.live.load(Ordering::Relaxed).max(1)).max(1);
        run_job(&self.core, &self.pool, share, queries, layer, job)
    }

    /// `update` + `attention` in one call — the `AttentionBackend::attend`
    /// shape, for engine loops driving a session through the scheduler.
    /// Checks the step and looks the session up once, and takes its lock
    /// once (growth reservation and write).
    pub fn attend(
        &self,
        id: SessionId,
        layer: usize,
        input: StepInput,
    ) -> Result<Vec<Vec<f32>>, ServeError> {
        let slot = self.append(id, &input.queries, &input.keys, &input.values, layer)?;
        self.enqueue(slot, &input.queries, layer, self.default_deadline)
    }

    /// Cached tokens at `layer` (reused prefix + local window).
    pub fn seq_len(&self, id: SessionId, layer: usize) -> Result<usize, ServeError> {
        self.check_layer(layer)?;
        Ok(self.slot(id)?.lock().session.seq_len(layer))
    }

    /// Materializes the session into a stored, indexed context
    /// (`DB.store`) on the calling thread. The session stays admitted;
    /// follow with [`ServeEngine::close`] to release its reservation.
    ///
    /// The session lock is held only to check the session's noted tokens
    /// and clone it (`Arc` bumps for the reused prefix and the local
    /// window, copies of the tokens, query samples and plan log), so this
    /// session and its co-batched tenants keep serving while [`Db::store`]
    /// merges the KV and builds the indexes. A session whose noted tokens
    /// do not cover its KV positions is [`ServeError::TokensNotNoted`], one
    /// whose tokens are noted but whose layers hold different numbers of
    /// KV positions (an interrupted prefill) is
    /// [`ServeError::UnevenLayers`], and a build
    /// that panics is [`ServeError::StoreFailed`] with the panic's
    /// message. Either way nothing is published and the session stays
    /// usable.
    pub fn store(&self, id: SessionId) -> Result<ContextId, ServeError> {
        let slot = self.slot(id)?;
        let snapshot = {
            let state = slot.lock();
            let session = &state.session;
            if session.storable_len().is_none() {
                let n_layers = self.db.config().model.n_layers;
                let positions = (0..n_layers).map(|layer| session.seq_len(layer));
                let shortest = positions.clone().min().unwrap_or(0);
                let longest = positions.max().unwrap_or(0);
                // A step still in flight (its layers apart, its token not
                // noted yet) is a token not noted; layers apart under
                // noted tokens are a prefill that stopped mid-chunk.
                return Err(if shortest < longest && session.tokens().len() >= longest {
                    ServeError::UnevenLayers { shortest, longest }
                } else {
                    ServeError::TokensNotNoted {
                        noted: session.tokens().len(),
                        positions: session.total_len(),
                    }
                });
            }
            session.clone()
        };
        catch_unwind(AssertUnwindSafe(|| self.db.store(&snapshot)))
            .map_err(|panic| ServeError::StoreFailed(panic_message(panic.as_ref())))
    }

    /// Removes the session, dropping its admission reservation.
    pub fn close(&self, id: SessionId) -> Result<(), ServeError> {
        let mut sessions = self.sessions.write();
        sessions.remove(&id).ok_or(ServeError::UnknownSession(id))?;
        self.live.store(sessions.len(), Ordering::Relaxed);
        Ok(())
    }

    /// A borrowing [`AttentionBackend`] adapter for `id`, so
    /// `Model::prefill` / `Model::generate` can run through the scheduler
    /// unchanged.
    pub fn backend(&self, id: SessionId) -> EngineBackend<'_> {
        EngineBackend { engine: self, id }
    }
}

impl Drop for ServeEngine {
    fn drop(&mut self) {
        self.core.shutdown.store(true, Ordering::Release);
        // Wake the scheduler; it drains any queued requests before exiting.
        // The notify must happen under the queue lock: the scheduler checks
        // `shutdown` and calls `cv.wait` under one continuous hold of that
        // lock, so an unlocked notify could fire between its check and its
        // wait and be lost, deadlocking this join.
        {
            let _q = self.core.queue.lock();
            self.core.cv.notify_all();
        }
        if let Some(h) = self.scheduler.take() {
            let _ = h.join();
        }
    }
}

/// Executes a dispatched request's job on the calling thread — one
/// [`execute`] call, which may fan a long request's heads out over `share`
/// of `pool`'s workers — and closes its span. A panic there, on this
/// thread or a pool task's, fails this request alone with
/// [`ServeError::ExecutionPanicked`] and closes its span as panicked.
/// The snapshot is dropped before this returns, so the caller's next
/// `update` finds its local window unshared.
pub(crate) fn run_job(
    core: &SchedulerCore,
    pool: &WorkStealingPool,
    share: usize,
    queries: &[Vec<f32>],
    layer: usize,
    job: Job,
) -> Result<Vec<Vec<f32>>, ServeError> {
    let Job {
        view,
        plan,
        enqueued,
        batch_start,
    } = job;
    let started = core.clock.now();
    let out = catch_unwind(AssertUnwindSafe(|| {
        #[cfg(feature = "instrumented")]
        if let Some(chaos) = core.chaos.get() {
            chaos.fire_panic(CHAOS_EXEC_PANIC);
        }
        let job = AttentionJob {
            view: &view,
            queries,
            layer,
            plan: &plan,
        };
        execute(pool, share, job)
    }));
    drop(view);
    let end = match &out {
        Ok(_) => SpanEnd::Executed {
            started,
            batch_start,
        },
        Err(_) => SpanEnd::Panicked { batch_start },
    };
    close_span(core, enqueued, end);
    out.map_err(|_| ServeError::ExecutionPanicked)
}

/// The message a panic was raised with.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    match payload.downcast_ref::<&str>() {
        Some(s) => (*s).to_string(),
        None => payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "non-string panic payload".to_string()),
    }
}

/// [`AttentionBackend`] adapter routing a model's per-layer attention
/// calls through the serving engine (and thus the scheduler).
pub struct EngineBackend<'a> {
    engine: &'a ServeEngine,
    id: SessionId,
}

impl EngineBackend<'_> {
    /// The trait has no error channel: a serving error ends the model's
    /// drive here, with one message for every call.
    fn served<T>(result: Result<T, ServeError>) -> T {
        result
            .unwrap_or_else(|e| panic!("serving error while a model was driving the session: {e}"))
    }
}

impl AttentionBackend for EngineBackend<'_> {
    fn attend(&mut self, layer: usize, input: StepInput) -> Vec<Vec<f32>> {
        Self::served(self.engine.attend(self.id, layer, input))
    }

    /// [`ServeEngine::update`]: the append half of `attend`, with no
    /// scheduler round trip.
    fn append(&mut self, layer: usize, input: StepInput) {
        let (queries, keys, values) = (&input.queries, &input.keys, &input.values);
        Self::served(self.engine.update(self.id, queries, keys, values, layer));
    }

    fn seq_len(&self, layer: usize) -> usize {
        self.engine
            .seq_len(self.id, layer)
            .expect("session evicted while a model was driving it")
    }
}

/// The token-major forward pass, shared with `alaya-llm`'s own
/// bit-for-bit tests.
#[cfg(test)]
#[path = "../../llm/tests/support/token_major.rs"]
mod token_major;

#[cfg(test)]
mod tests {
    use super::*;
    use alaya_llm::{Model, ModelConfig};
    use alaya_vector::rng::{gaussian_vec, seeded};

    fn engine() -> (ServeEngine, ModelConfig) {
        let model_cfg = ModelConfig::tiny();
        let db = Arc::new(Db::new(alaya_core::DbConfig::for_tests(model_cfg.clone())));
        (ServeEngine::new(db), model_cfg)
    }

    #[test]
    fn unknown_session_is_a_typed_error() {
        let (eng, cfg) = engine();
        let bogus = SessionId(42);
        let q = vec![vec![0.0; cfg.head_dim]; cfg.n_q_heads];
        assert_eq!(
            eng.attention(bogus, &q, 0).unwrap_err(),
            ServeError::UnknownSession(bogus)
        );
        assert_eq!(
            eng.close(bogus).unwrap_err(),
            ServeError::UnknownSession(bogus)
        );
        assert_eq!(
            eng.store(bogus).unwrap_err(),
            ServeError::UnknownSession(bogus)
        );
    }

    #[test]
    fn close_is_idempotent_only_via_error() {
        let (eng, _) = engine();
        let (sid, _) = eng.admit(&[1, 2, 3]).unwrap();
        assert_eq!(eng.n_sessions(), 1);
        eng.close(sid).unwrap();
        assert_eq!(eng.n_sessions(), 0);
        assert_eq!(eng.close(sid).unwrap_err(), ServeError::UnknownSession(sid));
    }

    /// Malformed tensors are rejected at the front door with a typed
    /// error — they must never reach a batch, where the resulting panic
    /// would abort every co-batched tenant's request.
    #[test]
    fn malformed_tensors_are_rejected_before_touching_session_or_batch() {
        let (eng, cfg) = engine();
        let (sid, _) = eng.admit(&[1, 2, 3]).unwrap();
        let want_q = ServeError::InvalidShape {
            what: "query",
            expected_heads: cfg.n_q_heads,
            expected_dim: cfg.head_dim,
        };

        // Out-of-range layer: typed rejection, not a batch-aborting panic.
        let ok_q = vec![vec![1.0; cfg.head_dim]; cfg.n_q_heads];
        assert_eq!(
            eng.attention(sid, &ok_q, cfg.n_layers).unwrap_err(),
            ServeError::InvalidLayer {
                layer: cfg.n_layers,
                n_layers: cfg.n_layers
            }
        );

        // attention: wrong head count (too many and too few), wrong dim.
        let fat = vec![vec![0.0; cfg.head_dim]; cfg.n_q_heads * 4];
        assert_eq!(eng.attention(sid, &fat, 0).unwrap_err(), want_q);
        let thin = vec![vec![0.0; cfg.head_dim]; 1];
        assert_eq!(eng.attention(sid, &thin, 0).unwrap_err(), want_q);
        let short = vec![vec![0.0; cfg.head_dim - 1]; cfg.n_q_heads];
        assert_eq!(eng.attention(sid, &short, 0).unwrap_err(), want_q);

        // update: a ragged K tensor must be rejected whole — a partial
        // push would leave per-head KV lengths diverged forever.
        let queries = vec![vec![1.0; cfg.head_dim]; cfg.n_q_heads];
        let kv = vec![vec![0.5; cfg.head_dim]; cfg.n_kv_heads];
        let mut ragged = kv.clone();
        ragged[cfg.n_kv_heads - 1].pop();
        assert_eq!(
            eng.update(sid, &queries, &ragged, &kv, 0).unwrap_err(),
            ServeError::InvalidShape {
                what: "key",
                expected_heads: cfg.n_kv_heads,
                expected_dim: cfg.head_dim,
            }
        );
        assert_eq!(eng.seq_len(sid, 0).unwrap(), 0, "session untouched");

        // The session keeps serving well-formed traffic.
        eng.update(sid, &queries, &kv, &kv, 0).unwrap();
        let out = eng.attention(sid, &queries, 0).unwrap();
        assert_eq!(out.len(), cfg.n_q_heads);
        eng.close(sid).unwrap();
    }

    /// A decode that outgrows the admitted local window must grow its
    /// reservation, and fail closed (session unchanged) when the budget
    /// cannot cover the growth.
    #[test]
    fn local_kv_growth_is_reserved_and_budget_limited() {
        let model_cfg = ModelConfig::tiny();
        let max_local_tokens = 4usize;
        let mut cfg = alaya_core::DbConfig::for_tests(model_cfg.clone());
        let per_session = crate::admission::session_bytes(&cfg, max_local_tokens);
        let per_token = per_token_bytes(&cfg);
        // Budget: admission plus exactly one growth chunk.
        cfg.gpu = MemoryTracker::new(per_session + per_token * max_local_tokens as u64);
        let db = Arc::new(Db::new(cfg));
        let eng = ServeEngine::with_options(
            Arc::clone(&db),
            ServeConfig {
                max_local_tokens,
                ..Default::default()
            },
        );

        let (sid, _) = eng.admit(&[1, 2, 3]).unwrap();
        let queries = vec![vec![1.0; model_cfg.head_dim]; model_cfg.n_q_heads];
        let kv = vec![vec![0.5; model_cfg.head_dim]; model_cfg.n_kv_heads];

        // 2 * max_local_tokens steps fit: the admitted window plus one
        // growth chunk, reserved on the tracker as it happens.
        for step in 0..2 * max_local_tokens {
            for layer in 0..model_cfg.n_layers {
                eng.update(sid, &queries, &kv, &kv, layer)
                    .unwrap_or_else(|e| panic!("step {step} layer {layer}: {e}"));
            }
        }
        assert!(db.gpu().in_use() > per_session, "growth must be tracked");

        // The next token needs a second growth chunk the budget cannot
        // cover: typed OutOfMemory, session unchanged, no overshoot.
        let len_before = eng.seq_len(sid, 0).unwrap();
        match eng.update(sid, &queries, &kv, &kv, 0) {
            Err(ServeError::OutOfMemory(_)) => {}
            other => panic!("expected OutOfMemory, got {other:?}"),
        }
        assert_eq!(eng.seq_len(sid, 0).unwrap(), len_before);
        assert!(db.gpu().in_use() <= db.gpu().budget());

        // Closing releases the reservation, growth included.
        eng.close(sid).unwrap();
        assert_eq!(db.gpu().in_use(), 0);
    }

    /// The dispatch policy `perfbench` runs under (it sets only
    /// `admission`): batch 64, zero window, no deadline, 4096 queued
    /// requests.
    #[test]
    fn default_dispatch_policy_is_pinned() {
        let (eng, _) = engine();
        assert_eq!(scheduler::MAX_BATCH, 64);
        assert_eq!(eng.core.window, Duration::ZERO);
        assert_eq!(eng.core.max_queue_requests, 4096);
        assert_eq!(eng.default_deadline, None);
        assert_eq!(eng.telemetry().est_exec, Duration::ZERO);
    }

    /// Caller mistakes are typed errors that reserve nothing and leave
    /// the engine serving.
    #[test]
    fn empty_prompt_is_a_typed_error_that_reserves_nothing() {
        let (eng, cfg) = engine();
        assert_eq!(eng.admit(&[]).unwrap_err(), ServeError::EmptyPrompt);
        assert_eq!(eng.n_sessions(), 0);
        assert_eq!(eng.db().gpu().in_use(), 0);

        let (sid, _) = eng.admit(&[1, 2, 3]).unwrap();
        let queries = vec![vec![1.0; cfg.head_dim]; cfg.n_q_heads];
        let kv = vec![vec![0.5; cfg.head_dim]; cfg.n_kv_heads];
        eng.update(sid, &queries, &kv, &kv, 0).unwrap();
        assert_eq!(
            eng.attention(sid, &queries, 0).unwrap().len(),
            cfg.n_q_heads
        );
        eng.close(sid).unwrap();
        assert_eq!(eng.db().gpu().in_use(), 0);
    }

    #[test]
    fn storing_without_noted_tokens_is_a_typed_error_and_the_session_lives_on() {
        let (eng, cfg) = engine();
        let model = Model::new(cfg.clone());
        let prompt: Vec<u32> = (5..15).collect();
        let (sid, truncated) = eng.admit(&prompt).unwrap();
        // Prefill without note_tokens: the session holds KV positions it
        // knows no token ids for.
        model.prefill(&truncated, 0, &mut eng.backend(sid));
        let want = ServeError::TokensNotNoted {
            noted: 0,
            positions: prompt.len(),
        };
        assert_eq!(eng.store(sid).unwrap_err(), want);
        assert_eq!(eng.db().n_contexts(), 0);

        // The session lock was released: the session still serves, and
        // stores once the tokens are noted.
        let queries = vec![vec![1.0; cfg.head_dim]; cfg.n_q_heads];
        assert_eq!(
            eng.attention(sid, &queries, 0).unwrap().len(),
            cfg.n_q_heads
        );
        eng.note_tokens(sid, &truncated).unwrap();
        let ctx = eng.store(sid).unwrap();
        assert_eq!(eng.db().context(ctx).unwrap().len(), prompt.len());
        eng.close(sid).unwrap();
        assert_eq!(eng.db().gpu().in_use(), 0);
    }

    /// A session whose layers hold different numbers of rows (a prefill
    /// that stopped mid-chunk) is not storable: a typed error, nothing
    /// published, and the session serves on and stores once its layers
    /// agree. Before, `storable_len` read layer 0 alone, so the first
    /// session below published a context whose layer 1 held 2 rows for 3
    /// tokens, and the second panicked in the coarse-index build.
    #[test]
    fn storing_uneven_layers_is_a_typed_error_and_the_session_lives_on() {
        let (eng, cfg) = engine();
        let queries = vec![vec![1.0; cfg.head_dim]; cfg.n_q_heads];
        let kv = vec![vec![0.5; cfg.head_dim]; cfg.n_kv_heads];
        let step = |sid, layer| eng.update(sid, &queries, &kv, &kv, layer).unwrap();

        let (sid, _) = eng.admit(&[1, 2, 3]).unwrap();
        (0..3).for_each(|_| step(sid, 0));
        (0..2).for_each(|_| step(sid, 1));
        eng.note_tokens(sid, &[1, 2, 3]).unwrap();
        let want = ServeError::UnevenLayers {
            shortest: 2,
            longest: 3,
        };
        assert_eq!(eng.store(sid).unwrap_err(), want);

        let (only_first, _) = eng.admit(&[4]).unwrap();
        step(only_first, 0);
        eng.note_tokens(only_first, &[4]).unwrap();
        let want = ServeError::UnevenLayers {
            shortest: 0,
            longest: 1,
        };
        assert_eq!(eng.store(only_first).unwrap_err(), want);
        assert_eq!(eng.db().n_contexts(), 0);

        step(sid, 1);
        let ctx = eng.db().context(eng.store(sid).unwrap()).unwrap();
        assert_eq!(ctx.len(), 3);
        assert!((0..cfg.n_layers).all(|layer| ctx.kv.seq_len(layer) == 3));
        for id in [sid, only_first] {
            eng.close(id).unwrap();
        }
        assert_eq!(eng.db().gpu().in_use(), 0);
    }

    /// A build that panics reaches the caller as a typed error, and the
    /// engine is otherwise untouched. Before any prefill the session holds
    /// 0 positions and 0 noted tokens, so `storable_len()` is `Some(0)` and
    /// `StoredContext::build` refuses the empty context.
    #[test]
    fn a_store_build_panic_is_a_typed_error_and_the_session_lives_on() {
        let (eng, cfg) = engine();
        let (sid, _) = eng.admit(&[1, 2, 3]).unwrap();
        let contexts = eng.db().n_contexts();
        match eng.store(sid) {
            Err(e @ ServeError::StoreFailed(_)) => {
                assert!(!e.is_retryable());
                assert!(
                    e.to_string().contains("cannot store an empty context"),
                    "{e}"
                );
            }
            other => panic!("expected StoreFailed, got {other:?}"),
        }
        assert_eq!(eng.db().n_contexts(), contexts);

        let queries = vec![vec![1.0; cfg.head_dim]; cfg.n_q_heads];
        let kv = vec![vec![0.5; cfg.head_dim]; cfg.n_kv_heads];
        eng.update(sid, &queries, &kv, &kv, 0).unwrap();
        assert_eq!(
            eng.attention(sid, &queries, 0).unwrap().len(),
            cfg.n_q_heads
        );
        eng.close(sid).unwrap();
        assert_eq!(eng.db().gpu().in_use(), 0);
    }

    /// A requester's share of the pool is its workers per live session.
    /// With two sessions on a 2-worker pool, a DIPR request over a
    /// 520-token stored context runs every head on its own thread; once
    /// the other session closes, its heads fan out again. Both outputs are
    /// the sequential oracle's, bit for bit.
    #[test]
    fn fan_out_is_sized_by_the_live_sessions() {
        let cfg = ModelConfig::tiny();
        let (db, mut prompt) = crate::scheduler::tests::long_context_db(&cfg);
        prompt.push(7);
        let db = Arc::new(db);
        let eng = ServeEngine::with_options(
            Arc::clone(&db),
            ServeConfig {
                threads: 2,
                // The 1-byte GPU budget only steers the plan to DIPR.
                admission: Some(MemoryTracker::unbounded()),
                ..Default::default()
            },
        );
        let (a, _) = eng.admit(&prompt).unwrap();
        let (b, _) = eng.admit(&prompt).unwrap();
        let (mut twin, _) = db.create_session(&prompt);
        let mut rng = seeded(0x5BA2E);
        let mut heads = |n: usize| -> Vec<Vec<f32>> {
            (0..n)
                .map(|_| gaussian_vec(&mut rng, cfg.head_dim, 1.0))
                .collect()
        };
        let (q, k, v) = (
            heads(cfg.n_q_heads),
            heads(cfg.n_kv_heads),
            heads(cfg.n_kv_heads),
        );
        eng.update(a, &q, &k, &v, 1).unwrap();
        twin.update(&q, &k, &v, 1);
        let want = twin.attention_sequential(&q, 1);
        assert!(twin.plan_log()[0].explain().starts_with("DIPR"));
        let tasks = || eng.pool_stats().tasks_executed();

        let before = tasks();
        assert_eq!(eng.attention(a, &q, 1).unwrap(), want);
        assert_eq!(tasks(), before, "two live sessions: a share of 1");
        eng.close(b).unwrap();
        assert_eq!(eng.attention(a, &q, 1).unwrap(), want);
        assert!(tasks() > before, "one live session: a share of 2");
        eng.close(a).unwrap();
    }

    #[test]
    fn model_generates_through_the_engine_backend() {
        let (eng, cfg) = engine();
        let model = Model::new(cfg.clone());
        let prompt: Vec<u32> = (5..25).collect();
        let (sid, truncated) = eng.admit(&prompt).unwrap();
        eng.note_tokens(sid, &truncated).unwrap();
        let reply = {
            let mut backend = eng.backend(sid);
            model.generate(&truncated, 4, &mut backend)
        };
        assert_eq!(reply.len(), 4);
        eng.note_tokens(sid, &reply).unwrap();
        let ctx = eng.store(sid).unwrap();
        // The stored context covers prompt + generated (minus the final
        // sampled-but-not-forwarded token).
        let stored = eng.db().context(ctx).unwrap();
        assert_eq!(stored.len(), prompt.len() + reply.len() - 1);
        eng.close(sid).unwrap();

        // A follow-up admission reuses the stored context.
        let (sid2, trunc2) = eng.admit(&prompt).unwrap();
        assert!(trunc2.len() < prompt.len());
        eng.close(sid2).unwrap();
    }

    /// A chunked prefill over a partly reused stored context, driven
    /// through a bare `Session` and through `EngineBackend`, equals the
    /// token-major reference driving a `Session`: the same logits, local
    /// K/V rows, query samples and set of plans; and once the engine
    /// stores it, the same K/V and graphs as the reference's store.
    /// Layer 0 runs ahead of layer 1 by up to a chunk, and every piece of
    /// session state is keyed by layer, so neither side can tell; at the
    /// last layer, every prompt row but the final one only appends, which
    /// records the same K/V and the query samples the graphs train on.
    #[test]
    fn chunked_prefill_through_a_session_is_the_token_major_loop() {
        use alaya_core::{DbConfig, Session};
        use alaya_llm::{FullKvBackend, PREFILL_CHUNK};
        use std::collections::BTreeSet;

        let cfg = ModelConfig::tiny();
        let model = Model::new(cfg.clone());
        // A 1-byte GPU budget plans DIPR: on Flat at layer 0, on Fine above.
        let db = Arc::new(Db::new(DbConfig {
            gpu: MemoryTracker::new(1),
            ..DbConfig::for_tests(cfg.clone())
        }));
        let context: Vec<u32> = (0..150).map(|i| (i * 37 % 256) as u32).collect();
        let mut kv = FullKvBackend::new(&cfg);
        model.prefill(&context, 0, &mut kv);
        db.import(context.clone(), kv.into_cache());
        // Reuse 100 of the 150 stored tokens, then prefill past one chunk.
        let prompt: Vec<u32> = (context[..100].iter().copied())
            .chain((0..PREFILL_CHUNK as u32 + 26).map(|i| i * 11 % 256))
            .collect();

        let (mut want, truncated) = db.create_session(&prompt);
        let start = want.reused_len();
        assert_eq!(start, 100);
        let want_logits =
            super::token_major::TokenMajor::new(&cfg).prefill(&truncated, start, &mut want);

        let (mut session, _) = db.create_session(&prompt);
        let session_logits = model.prefill(&truncated, start, &mut session);

        let eng = ServeEngine::with_options(
            Arc::clone(&db),
            ServeConfig {
                admission: Some(MemoryTracker::unbounded()),
                ..Default::default()
            },
        );
        let (sid, served_truncated) = eng.admit(&prompt).unwrap();
        assert_eq!(served_truncated, truncated);
        let served_logits = model.prefill(&truncated, start, &mut eng.backend(sid));
        let served = eng.slot(sid).unwrap().lock().session.clone();

        let bits = |v: &[f32]| -> Vec<u32> { v.iter().map(|x| x.to_bits()).collect() };
        let state = |s: &Session| {
            let mut rows = Vec::new();
            for layer in 0..cfg.n_layers {
                for h in 0..cfg.n_kv_heads {
                    let (k, v) = s.full_kv(layer, h);
                    rows.extend([bits(k.as_flat()), bits(v.as_flat())]);
                }
                for q in s.query_samples().layer(layer) {
                    rows.push(bits(q.as_flat()));
                }
            }
            let plans: BTreeSet<String> = s.plan_log().iter().map(|p| p.explain()).collect();
            (rows, plans)
        };
        let (want_rows, want_plans) = state(&want);
        assert_eq!(want_plans.len(), 2, "{want_plans:?}");
        for (what, logits, got) in [
            ("session", session_logits, &session),
            ("engine", served_logits, &served),
        ] {
            assert_eq!(bits(&logits), bits(&want_logits), "{what} logits");
            let (rows, plans) = state(got);
            assert!(rows == want_rows, "{what} K/V rows or query samples");
            assert_eq!(plans, want_plans, "{what} plans");
        }

        // The engine's store against the reference's (`session_model.rs`
        // pins `Db::store` of the bare session). Stores come last: a
        // published context would change what the admission above reuses.
        want.note_tokens(&truncated);
        let want = db.context(db.store(&want)).unwrap();
        eng.note_tokens(sid, &truncated).unwrap();
        let served = db.context(eng.store(sid).unwrap()).unwrap();
        eng.close(sid).unwrap();
        assert!(want.graph(cfg.n_layers - 1, 0).is_some());
        assert_eq!(served.tokens, want.tokens);
        for layer in 0..cfg.n_layers {
            for h in 0..cfg.n_kv_heads {
                let (g, w) = (served.kv.head(layer, h), want.kv.head(layer, h));
                assert_eq!(bits(g.keys.as_flat()), bits(w.keys.as_flat()), "keys");
                assert_eq!(bits(g.values.as_flat()), bits(w.values.as_flat()), "values");
                assert_eq!(served.graph(layer, h), want.graph(layer, h), "graph");
            }
        }
    }
}
