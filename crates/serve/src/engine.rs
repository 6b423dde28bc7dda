//! [`ServeEngine`]: the multi-tenant front door over one [`Db`].
//!
//! The engine owns admitted sessions behind small integer handles so many
//! threads can drive many sessions concurrently: `update` mutates exactly
//! one session under its own lock, `attention` submits to the scheduler
//! (which batches across sessions — see [`crate::scheduler`]) and blocks
//! on a per-request channel, and `store`/`close` end the session and
//! release its admission reservation.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::{Mutex, RwLock};

use alaya_core::stored::ContextId;
use alaya_core::{Db, StoreHandle};
use alaya_device::clock::{Clock, SystemClock};
use alaya_device::memory::MemoryTracker;
use alaya_device::pool::{self, WorkStealingPool};
use alaya_llm::backend::{AttentionBackend, StepInput};

use crate::admission::{per_token_bytes, session_bytes, AdmissionController};
use crate::scheduler::{
    self, BatchPolicy, Pending, ReservationGrowth, SchedulerCore, SchedulerStats, ServeError,
    SessionSlot,
};
use crate::telemetry::{LaneCounters, LaneStats, TelemetrySnapshot};

/// Handle to a session admitted into a [`ServeEngine`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(pub u64);

/// Engine construction options.
///
/// The defaults serve without shedding: no deadlines, dispatch
/// immediately, and the batch and queue bounds of
/// [`BatchPolicy::default`] — limits sized to stay invisible until the
/// server is genuinely drowning, at which point submissions get typed
/// [`ServeError::Overloaded`] backpressure instead of queueing without
/// bound. The dispatch window, deadline and queue bound are explicit
/// policy; the execution estimate behind `retry_after_hint` and the
/// deadline-shedding margin is measured (an EWMA of observed batch
/// times), never configured.
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
    /// Queue-depth bound; submissions beyond it are rejected with
    /// [`ServeError::Overloaded`]. Default 4096.
    pub max_queue_requests: usize,
    /// Time source for deadlines and dispatch windows. `None` (the
    /// default) uses the monotonic [`SystemClock`]; the substitution seam
    /// for a [`ManualClock`](alaya_device::clock::ManualClock).
    pub clock: Option<Arc<dyn Clock>>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        let policy = BatchPolicy::default();
        Self {
            threads: 0,
            max_local_tokens: 256,
            admission: None,
            dispatch_window: policy.window,
            default_deadline: None,
            max_queue_requests: policy.max_queue_requests,
            clock: None,
        }
    }
}

/// A concurrent multi-session serving engine over one [`Db`].
pub struct ServeEngine {
    db: Arc<Db>,
    admission: AdmissionController,
    sessions: RwLock<HashMap<SessionId, Arc<SessionSlot>>>,
    next_id: AtomicU64,
    core: Arc<SchedulerCore>,
    scheduler: Option<JoinHandle<()>>,
    /// Local-KV tokens each reservation (admission or growth) covers.
    reserve_tokens: usize,
    /// Device bytes per local-KV token, for growth reservations.
    per_token: u64,
    /// Deadline stamped on every submission without an explicit one.
    default_deadline: Option<Duration>,
    /// Shared with the scheduler core; all deadline math reads this.
    clock: Arc<dyn Clock>,
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
        let tracker = opts.admission.unwrap_or_else(|| Arc::clone(db.gpu()));
        let admission =
            AdmissionController::new(tracker, session_bytes(db.config(), opts.max_local_tokens));

        // DRR quantum: worst-case attended tokens for one request (the
        // stored window plus the full session-local cap), so one round of
        // credit dispatches roughly one worst-case request.
        let cfg = db.config();
        let quantum = cfg.window.initial + cfg.window.last + opts.max_local_tokens;
        let policy = BatchPolicy {
            window: opts.dispatch_window,
            max_queue_requests: opts.max_queue_requests.max(1),
            quantum: quantum.max(1) as u64,
            ..BatchPolicy::default()
        };
        let clock: Arc<dyn Clock> = opts.clock.unwrap_or_else(|| Arc::new(SystemClock::new()));

        let core = Arc::new(SchedulerCore::new(pool, policy, Arc::clone(&clock)));
        // Fold the lower layers' cells into the engine's registry so one
        // `telemetry()` snapshot covers the whole stack (scheduler, pool,
        // DB). Registration is first-wins: engines sharing the global pool
        // each see the same shared cells.
        core.pool.stats().register_into(&core.stats.registry);
        db.stats().register_into(&core.stats.registry);
        let sched_core = Arc::clone(&core);
        let scheduler = std::thread::Builder::new()
            .name("alaya-serve-scheduler".into())
            .spawn(move || scheduler::run(sched_core))
            .expect("spawning scheduler thread");
        let per_token = per_token_bytes(db.config());
        Self {
            db,
            admission,
            sessions: RwLock::new_named(HashMap::new(), "serve.sessions"),
            next_id: AtomicU64::new(0),
            core,
            scheduler: Some(scheduler),
            reserve_tokens: opts.max_local_tokens.max(1),
            per_token,
            default_deadline: opts.default_deadline,
            clock,
        }
    }

    /// The underlying database.
    pub fn db(&self) -> &Arc<Db> {
        &self.db
    }

    /// The admission controller (reservation sizing + tracker).
    pub fn admission(&self) -> &AdmissionController {
        &self.admission
    }

    /// Scheduler counters so far.
    pub fn stats(&self) -> SchedulerStats {
        self.core.stats.snapshot()
    }

    /// A point-in-time telemetry snapshot: the classic counters, the
    /// per-stage span histograms (`queue`/`plan`/`exec`/`total`), span
    /// lifecycle counts, per-tenant lane stats, the calibrated execution
    /// estimate, the last flight-recorder panic dump, and the full metric
    /// registry (renderable to JSON / Prometheus text).
    pub fn telemetry(&self) -> TelemetrySnapshot {
        // Snapshot the session table first and release its read lock
        // *before* touching the queue lock: observability must add no
        // `serve.sessions` → `serve.sched.queue` lock-order edge (neither
        // lock is ever held across the other anywhere else).
        let session_slots: Vec<(SessionId, Arc<SessionSlot>)> = {
            let sessions = self.sessions.read();
            sessions
                .iter()
                .map(|(&id, s)| (id, Arc::clone(s)))
                .collect()
        };
        let overview: HashMap<usize, (usize, u64)> = {
            let q = self.core.queue.lock();
            q.lane_overview()
                .into_iter()
                .map(|(key, queued, deficit)| (key, (queued, deficit)))
                .collect()
        };
        let mut lanes: Vec<LaneStats> = session_slots
            .into_iter()
            .map(|(id, slot)| {
                let key = Arc::as_ptr(&slot) as usize;
                let (queued, deficit) = overview.get(&key).copied().unwrap_or((0, 0));
                LaneStats {
                    session: id,
                    queued,
                    deficit,
                    executed: slot.lane.executed.get(),
                    shed_deadline: slot.lane.shed_deadline.get(),
                    rejected_overload: slot.lane.rejected_overload.get(),
                }
            })
            .collect();
        lanes.sort_by_key(|l| l.session);
        TelemetrySnapshot::collect(&self.core.stats, lanes)
    }

    /// The EWMA-calibrated per-batch execution estimate currently sizing
    /// `retry_after_hint` and deadline-shedding margins: zero until the
    /// first batch, then tracks observed batch wall times.
    pub fn calibrated_est_exec(&self) -> Duration {
        self.core.stats.est_exec()
    }

    /// The engine's time source (system or injected).
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    /// Arms deterministic fault injection: the scheduler probes `chaos`
    /// at its failpoints, and — when this engine owns a dedicated pool
    /// (`threads > 0`) — so do the pool's workers. The process-wide pool
    /// is deliberately left alone: injecting panics into workers shared
    /// with unrelated tests would make chaos non-hermetic. First call
    /// wins; later calls are ignored.
    #[cfg(feature = "instrumented")]
    pub fn inject_chaos(&self, chaos: Arc<alaya_chaos::Chaos>) {
        let _ = self.core.chaos.set(Arc::clone(&chaos));
        if !Arc::ptr_eq(&self.core.pool, pool::global()) {
            self.core.pool.inject_chaos(chaos);
        }
    }

    /// Sessions currently admitted.
    pub fn n_sessions(&self) -> usize {
        self.sessions.read().len()
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
        let reservation = self.admission.admit()?;
        let (session, truncated) = self.db.create_session(prompt);
        let slot = Arc::new(SessionSlot {
            base_ctx: session.base().map(|b| b.id),
            reused_len: session.reused_len(),
            session: Mutex::new_named(session, "serve.session"),
            _reservation: Some(reservation),
            growth: Mutex::new_named(
                ReservationGrowth {
                    covered_tokens: self.reserve_tokens,
                    guards: Vec::new(),
                },
                "serve.growth",
            ),
            lane: LaneCounters::default(),
        });
        let id = SessionId(self.next_id.fetch_add(1, Ordering::Relaxed));
        self.sessions.write().insert(id, slot);
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
    /// reserves another `max_local_tokens`-sized chunk *before* the write
    /// and fails closed with [`ServeError::OutOfMemory`] (leaving the
    /// session unchanged) when the device budget cannot cover the growth.
    pub fn update(
        &self,
        id: SessionId,
        queries: &[Vec<f32>],
        keys: &[Vec<f32>],
        values: &[Vec<f32>],
        layer: usize,
    ) -> Result<(), ServeError> {
        self.check_layer(layer)?;
        let model = &self.db.config().model;
        self.check_shape(queries, "query", model.n_q_heads)?;
        self.check_shape(keys, "key", model.n_kv_heads)?;
        self.check_shape(values, "value", model.n_kv_heads)?;
        let slot = self.slot(id)?;
        let mut session = slot.lock();
        let local_after = session.seq_len(layer) + 1 - slot.reused_len;
        {
            let mut growth = slot.growth.lock();
            if local_after > growth.covered_tokens {
                let chunk = self.reserve_tokens;
                let guard = self
                    .admission
                    .tracker()
                    .alloc(self.per_token * chunk as u64)
                    .map_err(ServeError::OutOfMemory)?;
                growth.covered_tokens += chunk;
                growth.guards.push(guard);
            }
        }
        session.update(queries, keys, values, layer);
        Ok(())
    }

    /// Records token ids for a later [`ServeEngine::store`].
    pub fn note_tokens(&self, id: SessionId, tokens: &[u32]) -> Result<(), ServeError> {
        let slot = self.slot(id)?;
        slot.lock().note_tokens(tokens);
        Ok(())
    }

    /// Computes attention for every query head at `layer` through the
    /// scheduler: the request is batched with whatever other sessions are
    /// asking at the same moment, planned once per group, executed
    /// per-head on the pool. Blocks until the output arrives. Outputs are
    /// bitwise-identical to `Session::attention_sequential`.
    pub fn attention(
        &self,
        id: SessionId,
        queries: &[Vec<f32>],
        layer: usize,
    ) -> Result<Vec<Vec<f32>>, ServeError> {
        self.attention_owned(id, queries.to_vec(), layer)
    }

    /// [`ServeEngine::attention`] taking the query tensor by value — the
    /// clone-free entry point for callers that already own it (the decode
    /// hot path goes through here via [`ServeEngine::attend`]).
    ///
    /// Carries the engine's default deadline (if any). May return the
    /// overload-control errors [`ServeError::Overloaded`] (queue full —
    /// the request was never queued) and [`ServeError::DeadlineExceeded`]
    /// (queued past its deadline and shed); both are
    /// [`ServeError::is_retryable`].
    pub fn attention_owned(
        &self,
        id: SessionId,
        queries: Vec<Vec<f32>>,
        layer: usize,
    ) -> Result<Vec<Vec<f32>>, ServeError> {
        self.submit(id, queries, layer, self.default_deadline)
    }

    /// [`ServeEngine::attention_owned`] with an explicit deadline
    /// (relative to now): if the request is still queued when the deadline
    /// can no longer be met, it is shed with
    /// [`ServeError::DeadlineExceeded`] instead of executing late.
    pub fn attention_with_deadline(
        &self,
        id: SessionId,
        queries: Vec<Vec<f32>>,
        layer: usize,
        deadline: Duration,
    ) -> Result<Vec<Vec<f32>>, ServeError> {
        self.submit(id, queries, layer, Some(deadline))
    }

    fn submit(
        &self,
        id: SessionId,
        queries: Vec<Vec<f32>>,
        layer: usize,
        deadline: Option<Duration>,
    ) -> Result<Vec<Vec<f32>>, ServeError> {
        self.check_layer(layer)?;
        self.check_shape(&queries, "query", self.db.config().model.n_q_heads)?;
        let slot = self.slot(id)?;
        // DRR cost: attended tokens this request makes the batch touch
        // (shared prefix + reservation-covered local KV — a cheap upper
        // bound that needs no session lock). The growth lock is released
        // before enqueue, so this adds no lock-order edge to the queue.
        let covered = {
            let growth = slot.growth.lock();
            growth.covered_tokens
        };
        let cost = (slot.reused_len as u64).saturating_add(covered as u64);
        let bytes = queries.iter().map(|q| q.len() * 4).sum::<usize>() as u64;
        let enqueued = self.clock.now();
        let (tx, rx) = mpsc::channel();
        self.core.enqueue(Pending {
            slot,
            queries,
            layer,
            reply: tx,
            enqueued,
            deadline: deadline.map(|d| enqueued.saturating_add(d)),
            cost,
            bytes,
        })?;
        rx.recv().map_err(|_| ServeError::ShuttingDown)?
    }

    /// `update` + `attention` in one call — the `AttentionBackend::attend`
    /// shape, for engine loops driving a session through the scheduler.
    pub fn attend(
        &self,
        id: SessionId,
        layer: usize,
        input: StepInput,
    ) -> Result<Vec<Vec<f32>>, ServeError> {
        self.update(id, &input.queries, &input.keys, &input.values, layer)?;
        self.attention_owned(id, input.queries, layer)
    }

    /// Cached tokens at `layer` (reused prefix + local window).
    pub fn seq_len(&self, id: SessionId, layer: usize) -> Result<usize, ServeError> {
        self.check_layer(layer)?;
        let slot = self.slot(id)?;
        let len = {
            let s = slot.lock();
            s.seq_len(layer)
        };
        Ok(len)
    }

    /// Materializes the session into a stored, indexed context
    /// (`DB.store`). The session stays admitted; follow with
    /// [`ServeEngine::close`] to release its reservation.
    ///
    /// The session lock is held only long enough to snapshot (the local
    /// window and query samples; the reused prefix is shared by `Arc`) —
    /// the KV merge and index build run on the shared pool, so in-flight
    /// attention on this and co-batched sessions keeps serving while a
    /// huge context builds. This call still blocks its *own* caller until
    /// the context is published; use [`ServeEngine::store_background`] to
    /// get the handle instead.
    pub fn store(&self, id: SessionId) -> Result<ContextId, ServeError> {
        self.store_background(id)?
            .wait()
            .map_err(ServeError::StoreFailed)
    }

    /// Copy-on-write store: snapshots the session under its lock (cheap)
    /// and builds the context on the shared pool. The returned handle
    /// carries the reserved [`ContextId`]; the context appears in the DB
    /// atomically when the build finishes — readers never observe a
    /// partially built context. A session whose noted tokens do not cover
    /// its KV positions is [`ServeError::TokensNotNoted`]; it stays usable.
    pub fn store_background(&self, id: SessionId) -> Result<StoreHandle, ServeError> {
        let slot = self.slot(id)?;
        let session = slot.lock();
        if session.storable_len().is_none() {
            return Err(ServeError::TokensNotNoted {
                noted: session.tokens().len(),
                positions: session.total_len(),
            });
        }
        Ok(self.db.store_background(&session))
    }

    /// Removes the session, dropping its admission reservation.
    pub fn close(&self, id: SessionId) -> Result<(), ServeError> {
        self.sessions
            .write()
            .remove(&id)
            .map(|_| ())
            .ok_or(ServeError::UnknownSession(id))
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

/// [`AttentionBackend`] adapter routing a model's per-layer attention
/// calls through the serving engine (and thus the scheduler).
pub struct EngineBackend<'a> {
    engine: &'a ServeEngine,
    id: SessionId,
}

impl AttentionBackend for EngineBackend<'_> {
    fn attend(&mut self, layer: usize, input: StepInput) -> Vec<Vec<f32>> {
        self.engine
            .attend(self.id, layer, input)
            .unwrap_or_else(|e| panic!("serving error while a model was driving the session: {e}"))
    }

    fn seq_len(&self, layer: usize) -> usize {
        self.engine
            .seq_len(self.id, layer)
            .expect("session evicted while a model was driving it")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alaya_llm::{Model, ModelConfig};

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

        // Closing releases admission plus all growth reservations.
        eng.close(sid).unwrap();
        assert_eq!(db.gpu().in_use(), 0);
    }

    /// The dispatch policy `perfbench` runs under (it sets only
    /// `admission`): batch 64, zero window, no deadline, 4096 requests /
    /// 256 MiB.
    #[test]
    fn default_dispatch_policy_is_pinned() {
        let (eng, _) = engine();
        let policy = &eng.core.policy;
        assert_eq!(policy.max_batch, 64);
        assert_eq!(policy.window, Duration::ZERO);
        assert_eq!(policy.max_queue_requests, 4096);
        assert_eq!(policy.max_queue_bytes, 256 << 20);
        assert_eq!(eng.default_deadline, None);
        assert_eq!(eng.calibrated_est_exec(), Duration::ZERO);
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
        assert_eq!(eng.store_background(sid).err(), Some(want));
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
}
