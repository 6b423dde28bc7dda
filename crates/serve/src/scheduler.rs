//! The cross-session attention scheduler.
//!
//! Callers from many threads submit attention requests; a dedicated
//! scheduler thread collects them into *bounded* batches and:
//!
//! 1. **Collects** a batch under the dispatch policy ([`BatchPolicy`]):
//!    *bounded size* (`max_batch` — the batch ahead of a request must not
//!    eat its latency budget), a *dispatch window* (an under-full batch
//!    lingers up to `window` collecting batchmates, buying the
//!    cross-session plan sharing below), *deficit-round-robin
//!    fairness* across sessions (each lane banks `quantum` cost units per
//!    round and dispatches while its deficit covers the head request's
//!    cost, so a million-token tenant cannot monopolize consecutive
//!    batches), and *deadline shedding* (a request whose deadline cannot
//!    be met anymore — `now` plus the measured per-batch execution
//!    estimate is past it — is answered with a typed
//!    [`ServeError::DeadlineExceeded`] instead of executing). Queue depth
//!    is bounded at submission: [`SchedulerCore::enqueue`] rejects with
//!    [`ServeError::Overloaded`] rather than queueing without bound.
//! 2. **Groups** the batch by `(stored context, layer, reused prefix)`.
//!    Sessions in one group have identical [`QuerySpec`]s, so the
//!    optimizer runs **once per group** and every member executes under
//!    the shared plan — the cross-session analogue of the paper's "one
//!    index, many consumers" economics.
//! 3. **Executes** the batch on the work-stealing pool: one task per
//!    `(request, query head)` pair for long contexts, one task per request
//!    below the serial cutoff (`PARALLEL_MIN_TOKENS`). Heads are
//!    independent, so this is safe and — because each task writes only its
//!    own output slot — bitwise deterministic for any worker count or
//!    steal order.
//! 4. **Replies** through each request's channel, unblocking its caller.
//!    Every request that enters the queue receives exactly one reply —
//!    executed, shed, or aborted — and its session slot (hence its
//!    admission reservation) is released before the reply is sent.
//!
//! All time is read through the engine's injectable
//! [`Clock`](alaya_device::clock::Clock), so deadline and window logic is
//! deterministic under the chaos harness's [`ManualClock`]. With the
//! `instrumented` feature the loop carries a batch-delay failpoint
//! ([`CHAOS_BATCH_DELAY`]) simulating slow execution.
//!
//! The scheduler locks each involved session for the duration of the
//! batch; `update` calls on those sessions queue behind it, preserving
//! the per-session ordering contract of the `AttentionBackend` seam.
//!
//! [`QuerySpec`]: alaya_query::optimizer::QuerySpec
//! [`ManualClock`]: alaya_device::clock::ManualClock

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Sender;
use std::sync::Arc;
#[cfg(feature = "instrumented")]
use std::sync::OnceLock;
use std::time::Duration;

use parking_lot::{Condvar, Mutex, MutexGuard};

use alaya_core::session::PARALLEL_MIN_TOKENS;
use alaya_core::stored::ContextId;
use alaya_core::Session;
use alaya_device::clock::Clock;
use alaya_device::memory::MemoryGuard;
use alaya_device::pool::WorkStealingPool;
use alaya_llm::backend::AttentionBackend as _;
use alaya_query::optimizer::Plan;
use alaya_telemetry::Event;

use crate::telemetry::{nanos, LaneCounters, SchedTelemetry};

pub use crate::error::ServeError;

/// Failpoint: the scheduler sleeps before executing a collected batch,
/// simulating a slow tenant / slow device so queued requests pile up and
/// deadlines expire. Fired with no locks held.
#[cfg(feature = "instrumented")]
pub const CHAOS_BATCH_DELAY: &str = "serve.sched.batch_delay";

/// A request heavier than `COST_CLAMP * quantum` is billed as exactly
/// that: its lane then waits at most `COST_CLAMP` DRR rounds between
/// dispatches, bounding how long fairness can starve a giant tenant.
const COST_CLAMP: u64 = 8;

/// Dispatch policy: how the scheduler bounds its batches and its queue.
/// Built from [`ServeConfig`](crate::engine::ServeConfig); the defaults
/// here are the engine's defaults.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Maximum requests per dispatched batch.
    pub max_batch: usize,
    /// How long an under-full batch lingers for batchmates. Zero = never
    /// linger (dispatch whatever is queued immediately).
    pub window: Duration,
    /// Queue-depth bound: submissions beyond this many queued requests
    /// are rejected with [`ServeError::Overloaded`].
    pub max_queue_requests: usize,
    /// Queue-size bound in request bytes, same rejection.
    pub max_queue_bytes: u64,
    /// Cost units (attended tokens) each session lane banks per DRR
    /// round.
    pub quantum: u64,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        Self {
            max_batch: 64,
            window: Duration::ZERO,
            max_queue_requests: 4096,
            max_queue_bytes: 256 << 20,
            quantum: 512,
        }
    }
}

/// One registered session: the session proper plus its immutable grouping
/// metadata and the admission reservation it holds while alive.
pub(crate) struct SessionSlot {
    pub(crate) session: Mutex<Session>,
    /// The stored context this session reuses (grouping key part 1).
    pub(crate) base_ctx: Option<ContextId>,
    /// Reused prefix length (grouping key part 2; fixed at admission).
    pub(crate) reused_len: usize,
    /// Admission reservation; dropping the slot releases the budget.
    pub(crate) _reservation: Option<MemoryGuard>,
    /// Reservation growth as the session-local KV outgrows the admitted
    /// window; dropped (releasing the bytes) with the slot.
    pub(crate) growth: Mutex<ReservationGrowth>,
    /// Per-session outcome counters for the telemetry lane view.
    pub(crate) lane: LaneCounters,
}

/// Tracks how many local-KV tokens the session's reservations cover and
/// holds the growth guards keeping the tracker in step with real usage.
pub(crate) struct ReservationGrowth {
    /// Local tokens covered by the admission reservation plus all growth
    /// reservations so far.
    pub(crate) covered_tokens: usize,
    pub(crate) guards: Vec<MemoryGuard>,
}

impl SessionSlot {
    /// Locks the session. The `parking_lot` lock has no poisoning, which
    /// is exactly the semantics the batch path needs: every lock holder
    /// either only reads the session (execution is `&Session`) or appends
    /// whole entries (`update`, `note_plan`, `note_tokens`) — a batch that
    /// panicked while holding the lock (e.g. on a malformed co-batched
    /// request) never leaves the session half-mutated, so innocent tenants
    /// sharing that batch must not be bricked by a poison flag.
    pub(crate) fn lock(&self) -> MutexGuard<'_, Session> {
        self.session.lock()
    }
}

/// A queued attention request.
pub(crate) struct Pending {
    pub(crate) slot: Arc<SessionSlot>,
    pub(crate) queries: Vec<Vec<f32>>,
    pub(crate) layer: usize,
    pub(crate) reply: Sender<Result<Vec<Vec<f32>>, ServeError>>,
    /// Scheduler-clock time this request entered the queue.
    pub(crate) enqueued: Duration,
    /// Absolute scheduler-clock deadline; `None` = never shed.
    pub(crate) deadline: Option<Duration>,
    /// DRR cost in attended tokens (reused prefix + covered local KV):
    /// the work this request makes the batch do.
    pub(crate) cost: u64,
    /// Queue-accounting bytes (the query tensor).
    pub(crate) bytes: u64,
}

/// Monotonic scheduler counters (observability + batching assertions in
/// tests and benches).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedulerStats {
    /// Attention requests executed.
    pub requests: u64,
    /// Batches dispatched.
    pub batches: u64,
    /// Optimizer invocations (one per group, not per request).
    pub plans_computed: u64,
    /// Requests that executed under a plan computed for a group-mate.
    pub shared_plan_requests: u64,
    /// Largest batch dispatched so far.
    pub max_batch: u64,
    /// Requests shed from the queue because their deadline expired.
    pub shed_deadline: u64,
    /// Submissions rejected at enqueue because the queue was at its
    /// request/byte bound.
    pub rejected_overload: u64,
}

/// One session's FIFO lane in the deficit-round-robin queue.
#[derive(Default)]
struct TenantLane {
    /// Banked dispatch credit, in cost units (attended tokens).
    deficit: u64,
    queue: VecDeque<Pending>,
}

/// The scheduler's queue: per-session lanes served deficit-round-robin.
/// Requests from one session stay FIFO (the per-session ordering
/// contract); *across* sessions, dispatch order is deficit-weighted so
/// expensive tenants cannot monopolize consecutive batches.
#[derive(Default)]
pub(crate) struct SchedQueue {
    /// Lane per live session, keyed by slot address. A lane exists only
    /// while it has queued requests (its deficit resets when it empties —
    /// an idle session must not bank credit).
    lanes: HashMap<usize, TenantLane>,
    /// Round-robin order over `lanes` keys.
    rr: VecDeque<usize>,
    n_queued: usize,
    queued_bytes: u64,
}

impl SchedQueue {
    pub(crate) fn len(&self) -> usize {
        self.n_queued
    }

    /// Instantaneous per-lane view for telemetry: `(slot key, queued
    /// requests, banked deficit)` per live lane. Idle sessions have no
    /// lane (their deficit reset when the lane drained).
    pub(crate) fn lane_overview(&self) -> Vec<(usize, usize, u64)> {
        self.lanes
            .iter()
            .map(|(&key, lane)| (key, lane.queue.len(), lane.deficit))
            .collect()
    }

    fn push(&mut self, p: Pending) {
        let key = slot_ptr(&p);
        self.n_queued += 1;
        self.queued_bytes = self.queued_bytes.saturating_add(p.bytes);
        if !self.lanes.contains_key(&key) {
            self.rr.push_back(key);
        }
        self.lanes.entry(key).or_default().queue.push_back(p);
    }

    /// Collects the next batch by deficit round robin, shedding requests
    /// whose deadline can no longer be met (`now + est_exec` past it;
    /// `est_exec` is the measured per-batch execution estimate).
    /// Returns `(batch, shed)`. Progress guarantee: when the queue is
    /// nonempty the union is nonempty — each unvisited-lane round banks
    /// another `quantum`, and costs are clamped to `COST_CLAMP * quantum`,
    /// so some head request becomes dispatchable within `COST_CLAMP`
    /// rounds.
    fn collect(
        &mut self,
        policy: &BatchPolicy,
        est_exec: Duration,
        now: Duration,
    ) -> (Vec<Pending>, Vec<Pending>) {
        let mut batch = Vec::new();
        let mut shed = Vec::new();
        while batch.len() < policy.max_batch {
            let Some(key) = self.rr.pop_front() else {
                break;
            };
            let Some(lane) = self.lanes.get_mut(&key) else {
                continue;
            };
            lane.deficit = lane.deficit.saturating_add(policy.quantum);
            while batch.len() < policy.max_batch {
                let Some(head) = lane.queue.front() else {
                    break;
                };
                let expired = head
                    .deadline
                    .is_some_and(|dl| now.saturating_add(est_exec) >= dl);
                if expired {
                    // Shedding consumes no deficit: the lane did no work.
                    if let Some(p) = lane.queue.pop_front() {
                        self.n_queued -= 1;
                        self.queued_bytes = self.queued_bytes.saturating_sub(p.bytes);
                        shed.push(p);
                    }
                    continue;
                }
                let cost = head
                    .cost
                    .max(1)
                    .min(policy.quantum.saturating_mul(COST_CLAMP));
                if cost > lane.deficit {
                    break;
                }
                lane.deficit -= cost;
                if let Some(p) = lane.queue.pop_front() {
                    self.n_queued -= 1;
                    self.queued_bytes = self.queued_bytes.saturating_sub(p.bytes);
                    batch.push(p);
                }
            }
            if lane.queue.is_empty() {
                self.lanes.remove(&key);
            } else {
                self.rr.push_back(key);
            }
        }
        (batch, shed)
    }
}

/// State shared between the engine (producer side) and the scheduler
/// thread (consumer side).
pub(crate) struct SchedulerCore {
    pub(crate) queue: Mutex<SchedQueue>,
    pub(crate) cv: Condvar,
    pub(crate) shutdown: AtomicBool,
    pub(crate) stats: SchedTelemetry,
    pub(crate) pool: Arc<WorkStealingPool>,
    pub(crate) policy: BatchPolicy,
    pub(crate) clock: Arc<dyn Clock>,
    /// Armed failpoint registry (chaos builds only); a `OnceLock` rather
    /// than a lock so probing it adds no lock site and no ordering edges.
    #[cfg(feature = "instrumented")]
    pub(crate) chaos: OnceLock<Arc<alaya_chaos::Chaos>>,
}

impl SchedulerCore {
    pub(crate) fn new(
        pool: Arc<WorkStealingPool>,
        policy: BatchPolicy,
        clock: Arc<dyn Clock>,
    ) -> Self {
        Self {
            queue: Mutex::new_named(SchedQueue::default(), "serve.sched.queue"),
            cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            stats: SchedTelemetry::new(),
            pool,
            policy,
            clock,
            #[cfg(feature = "instrumented")]
            chaos: OnceLock::new(),
        }
    }

    /// Queues a request, or rejects it with [`ServeError::Overloaded`]
    /// when the queue is at its request/byte bound. A rejected request
    /// never occupies a slot; its `Pending` (and the session Arc inside)
    /// is dropped here, after the queue lock is released.
    pub(crate) fn enqueue(&self, p: Pending) -> Result<(), ServeError> {
        // Span opens at the front door; exactly one close follows —
        // rejected here, or shed / executed / panicked on the scheduler
        // thread.
        self.stats.spans_opened.inc();
        let mut q = self.queue.lock();
        let over_requests = q.len() >= self.policy.max_queue_requests;
        let over_bytes = q.queued_bytes.saturating_add(p.bytes) > self.policy.max_queue_bytes;
        if over_requests || over_bytes {
            let err = ServeError::Overloaded {
                queued_requests: q.n_queued,
                queued_bytes: q.queued_bytes,
                retry_after_hint: self.retry_after_hint(q.n_queued),
            };
            drop(q);
            self.stats.rejected_overload.inc();
            self.stats.spans_rejected.inc();
            p.slot.lane.rejected_overload.inc();
            self.stats.recorder.record(Event::new(
                nanos(self.clock.now()),
                "serve.reject.overload",
                Arc::as_ptr(&p.slot) as usize as u64,
                p.bytes,
                0,
            ));
            // Dropped here — lock released first, so freeing the request's
            // session Arc (possibly the last reference) runs lock-free.
            drop(p);
            return Err(err);
        }
        q.push(p);
        self.stats.queue_depth.set(q.n_queued as i64);
        self.stats.queue_bytes.set(q.queued_bytes as i64);
        self.cv.notify_one();
        Ok(())
    }

    /// Client-backoff estimate: batches ahead of a new submission times
    /// the measured per-batch execution estimate (1 ms floor before the
    /// first batch has been observed — "come back after the queue has
    /// turned over at least once", not "hammer immediately").
    fn retry_after_hint(&self, queued: usize) -> Duration {
        let batches_ahead = (queued / self.policy.max_batch.max(1) + 1) as u32;
        let est = self.stats.est_exec();
        let per_batch = if est.is_zero() {
            Duration::from_millis(1)
        } else {
            est
        };
        per_batch.saturating_mul(batches_ahead)
    }
}

/// The scheduler thread's main loop: collect → shed → execute, until
/// shutdown is signalled *and* the queue is empty (queued requests are
/// always answered — executed or shed — never dropped).
pub(crate) fn run(core: Arc<SchedulerCore>) {
    loop {
        let (batch, shed) = {
            let mut q = core.queue.lock();
            loop {
                if q.n_queued == 0 {
                    if core.shutdown.load(Ordering::Acquire) {
                        return;
                    }
                    core.cv.wait(&mut q);
                    continue;
                }
                // Dispatch window: an under-full batch lingers for
                // batchmates (plan sharing), but never past `window`.
                // Both exits are checked — elapsed clock time for the
                // injectable clock, and the real `wait_for` timeout as
                // the liveness backstop when a test clock never advances.
                let window = core.policy.window;
                if !window.is_zero()
                    && q.n_queued < core.policy.max_batch
                    && !core.shutdown.load(Ordering::Acquire)
                {
                    let opened = core.clock.now();
                    loop {
                        let elapsed = core.clock.now().saturating_sub(opened);
                        if elapsed >= window
                            || q.n_queued >= core.policy.max_batch
                            || core.shutdown.load(Ordering::Acquire)
                        {
                            break;
                        }
                        if core.cv.wait_for(&mut q, window - elapsed).timed_out() {
                            break;
                        }
                    }
                }
                // The shed margin is the EWMA of observed batch times,
                // read fresh per collect.
                let out = q.collect(&core.policy, core.stats.est_exec(), core.clock.now());
                if out.0.is_empty() && out.1.is_empty() {
                    // Lost a race (another collect drained the queue
                    // between wait and here); re-check from the top.
                    continue;
                }
                core.stats.queue_depth.set(q.n_queued as i64);
                core.stats.queue_bytes.set(q.queued_bytes as i64);
                break out;
            }
        };

        // Shed replies happen outside the queue lock, slot dropped first:
        // a caller receiving DeadlineExceeded may immediately close the
        // session and must get its admission reservation back.
        let now = core.clock.now();
        for p in shed {
            core.stats.shed_deadline.inc();
            core.stats.spans_shed.inc();
            p.slot.lane.shed_deadline.inc();
            let Pending {
                slot,
                reply,
                enqueued,
                ..
            } = p;
            let queued_for = now.saturating_sub(enqueued);
            core.stats.recorder.record(Event::new(
                nanos(now),
                "serve.shed.deadline",
                Arc::as_ptr(&slot) as usize as u64,
                nanos(queued_for),
                0,
            ));
            drop(slot);
            let _ = reply.send(Err(ServeError::DeadlineExceeded { queued_for }));
        }
        if batch.is_empty() {
            continue;
        }

        // Batch wall time (the EWMA's input) starts *before* the chaos
        // delay: an injected slow batch must look slow to the calibration,
        // exactly as a genuinely slow device would.
        let t_batch0 = core.clock.now();

        // Chaos: simulate a slow batch (no locks held while sleeping).
        #[cfg(feature = "instrumented")]
        if let Some(chaos) = core.chaos.get() {
            if let Some(delay) = chaos.fire_delay(CHAOS_BATCH_DELAY) {
                core.stats.recorder.record(Event::new(
                    nanos(t_batch0),
                    "chaos.batch_delay",
                    0,
                    nanos(delay),
                    batch.len() as u64,
                ));
                std::thread::sleep(delay);
            }
        }

        // A panicking batch (e.g. a malformed request whose head task
        // panics on the pool) must not kill the scheduler thread: queued
        // and future requests would then block on `recv` forever. Catch
        // the unwind, answer every member of the batch with a typed error,
        // and keep serving. (`execute_batch` only sends replies in its
        // final loop, after all fallible work, so no member has been
        // answered twice.)
        type ReplyMeta = (Sender<Result<Vec<Vec<f32>>, ServeError>>, Duration, u64);
        let replies: Vec<ReplyMeta> = batch
            .iter()
            .map(|p| (p.reply.clone(), p.enqueued, slot_ptr(p) as u64))
            .collect();
        if catch_unwind(AssertUnwindSafe(|| execute_batch(&core, batch))).is_err() {
            // Freeze the flight recorder first: the events leading up to
            // the panic are the post-mortem.
            core.stats
                .recorder
                .dump_on_panic("scheduler batch execution panicked");
            let t_panic = nanos(core.clock.now());
            for (reply, enqueued, key) in replies {
                core.stats.spans_panicked.inc();
                core.stats.recorder.record(Event::new(
                    t_panic,
                    "serve.reply.panicked",
                    key,
                    nanos(enqueued),
                    0,
                ));
                let _ = reply.send(Err(ServeError::ExecutionPanicked));
            }
        }
        core.stats
            .observe_batch(core.clock.now().saturating_sub(t_batch0));
    }
}

type GroupKey = (Option<ContextId>, usize, usize);

fn group_key(p: &Pending) -> GroupKey {
    (p.slot.base_ctx, p.layer, p.slot.reused_len)
}

fn slot_ptr(p: &Pending) -> usize {
    Arc::as_ptr(&p.slot) as usize
}

fn execute_batch(core: &SchedulerCore, batch: Vec<Pending>) {
    let stats = &core.stats;
    // Batch assembled: the queue stage of every member's span closes here.
    let t_assembled = core.clock.now();
    for p in &batch {
        stats
            .stage_queue
            .record(nanos(t_assembled.saturating_sub(p.enqueued)));
    }
    stats.batches.inc();
    stats.requests.add(batch.len() as u64);
    stats.max_batch.record_max(batch.len() as i64);

    // Group by (context, layer, reused prefix): members share one plan.
    let mut groups: HashMap<GroupKey, Vec<usize>> = HashMap::new();
    for (i, p) in batch.iter().enumerate() {
        groups.entry(group_key(p)).or_default().push(i);
    }

    // Lock every distinct session for the batch. The scheduler is the only
    // place that ever holds more than one session lock, so ordering cannot
    // deadlock against `update` callers (who take exactly one).
    let mut guards: HashMap<usize, MutexGuard<'_, Session>> = HashMap::new();
    for p in &batch {
        guards.entry(slot_ptr(p)).or_insert_with(|| p.slot.lock());
    }

    // Plan once per group; log the plan on every participating session.
    let mut plans: Vec<Option<Plan>> = vec![None; batch.len()];
    for idxs in groups.values() {
        let leader = &batch[idxs[0]];
        let plan = guards[&slot_ptr(leader)].plan(leader.layer);
        stats.plans_computed.inc();
        stats.shared_plan_requests.add(idxs.len() as u64 - 1);
        for &i in idxs {
            plans[i] = Some(plan.clone());
        }
    }
    for (i, p) in batch.iter().enumerate() {
        if let Some(g) = guards.get_mut(&slot_ptr(p)) {
            g.note_plan(plans[i].as_ref().expect("every request was grouped"));
        }
    }
    // Plan stage: session locking + grouping + optimizer, amortized over
    // the batch — recorded once per member so stage counts reconcile.
    let t_planned = core.clock.now();
    let plan_nanos = nanos(t_planned.saturating_sub(t_assembled));
    for _ in 0..batch.len() {
        stats.stage_plan.record(plan_nanos);
    }

    // Execute every (request, head) pair on the pool. Each task borrows
    // its session immutably and owns exactly one output slot.
    let mut outputs: Vec<Vec<Option<Vec<f32>>>> =
        batch.iter().map(|p| vec![None; p.queries.len()]).collect();
    {
        let sessions: HashMap<usize, &Session> = guards.iter().map(|(&k, g)| (k, &**g)).collect();
        core.pool.scope(|s| {
            for ((p, plan), out) in batch.iter().zip(&plans).zip(outputs.iter_mut()) {
                let session = sessions[&slot_ptr(p)];
                let plan = plan.as_ref().expect("every request was grouped");
                let layer = p.layer;
                if session.seq_len(layer) < PARALLEL_MIN_TOKENS {
                    // Short-context request: one task for all heads —
                    // per-head dispatch would cost more than the heads'
                    // microseconds of work. Requests still parallelize
                    // against each other.
                    s.spawn(move || {
                        for (qh, slot) in out.iter_mut().enumerate() {
                            *slot =
                                Some(session.attend_query_head(&p.queries[qh], qh, layer, plan));
                        }
                    });
                } else {
                    for (qh, slot) in out.iter_mut().enumerate() {
                        let q = &p.queries[qh];
                        s.spawn(move || {
                            *slot = Some(session.attend_query_head(q, qh, layer, plan));
                        });
                    }
                }
            }
        });
    }
    drop(guards);
    // Exec stage: the pool scope, shared by every member.
    let t_executed = core.clock.now();
    let exec_nanos = nanos(t_executed.saturating_sub(t_planned));
    for _ in 0..batch.len() {
        stats.stage_exec.record(exec_nanos);
    }

    for (p, out) in batch.into_iter().zip(outputs) {
        let result: Vec<Vec<f32>> = out
            .into_iter()
            .map(|o| o.expect("head task filled its slot"))
            .collect();
        let key = slot_ptr(&p) as u64;
        p.slot.lane.executed.inc();
        let Pending {
            slot,
            reply,
            enqueued,
            ..
        } = p;
        // Release the slot *before* replying: a caller that receives this
        // reply may immediately `close` the session and expect its
        // admission reservation back — the scheduler must not keep the
        // slot (and thus the reservation) alive past the reply.
        drop(slot);
        // Span closes: enqueue → reply, the end-to-end number the bench
        // reconciles against its own measurements.
        let t_reply = core.clock.now();
        let total = nanos(t_reply.saturating_sub(enqueued));
        stats.stage_total.record(total);
        stats.spans_executed.inc();
        stats
            .recorder
            .record(Event::new(nanos(t_reply), "serve.reply.ok", key, total, 0));
        // A dropped receiver means the caller gave up; nothing to do.
        let _ = reply.send(Ok(result));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alaya_core::{Db, DbConfig};
    use alaya_device::clock::{ManualClock, SystemClock};
    use alaya_llm::{FullKvBackend, Model, ModelConfig};
    use alaya_vector::rng::{gaussian_vec, seeded};
    use std::sync::mpsc;

    fn slot_for(db: &Db, prompt: &[u32]) -> Arc<SessionSlot> {
        let (session, _) = db.create_session(prompt);
        Arc::new(SessionSlot {
            base_ctx: session.base().map(|b| b.id),
            reused_len: session.reused_len(),
            session: Mutex::new_named(session, "serve.session"),
            _reservation: None,
            growth: Mutex::new(ReservationGrowth {
                covered_tokens: usize::MAX,
                guards: Vec::new(),
            }),
            lane: LaneCounters::default(),
        })
    }

    fn core_for_tests(threads: usize) -> SchedulerCore {
        SchedulerCore::new(
            Arc::new(WorkStealingPool::new(threads)),
            BatchPolicy::default(),
            Arc::new(SystemClock::new()),
        )
    }

    type ReplyRx = mpsc::Receiver<Result<Vec<Vec<f32>>, ServeError>>;

    fn pending(
        slot: &Arc<SessionSlot>,
        queries: Vec<Vec<f32>>,
        layer: usize,
        cost: u64,
        deadline: Option<Duration>,
    ) -> (Pending, ReplyRx) {
        let (tx, rx) = mpsc::channel();
        (
            Pending {
                slot: Arc::clone(slot),
                queries,
                layer,
                reply: tx,
                enqueued: Duration::ZERO,
                deadline,
                cost,
                bytes: 64,
            },
            rx,
        )
    }

    /// One batch, four requests: three sessions over the same stored
    /// context at the same layer share one plan; a fourth request at
    /// another layer gets its own. Outputs equal the sequential path.
    #[test]
    fn batch_groups_by_context_layer_and_prefix() {
        let model_cfg = ModelConfig::tiny();
        let db = Db::new(DbConfig::for_tests(model_cfg.clone()));
        let model = Model::new(model_cfg.clone());
        let ctx: Vec<u32> = (0..40).collect();
        let mut be = FullKvBackend::new(&model_cfg);
        model.prefill(&ctx, 0, &mut be);
        db.import(ctx.clone(), be.into_cache());

        let mut prompt = ctx.clone();
        prompt.extend([99, 98]);
        let s1 = slot_for(&db, &prompt);
        let s2 = slot_for(&db, &prompt);
        let s3 = slot_for(&db, &prompt);

        let core = core_for_tests(4);
        let mut rng = seeded(5);
        let queries: Vec<Vec<f32>> = (0..model_cfg.n_q_heads)
            .map(|_| gaussian_vec(&mut rng, model_cfg.head_dim, 1.0))
            .collect();

        let (p1, r1) = pending(&s1, queries.clone(), 1, 1, None);
        let (p2, r2) = pending(&s2, queries.clone(), 1, 1, None);
        let (p3, r3) = pending(&s3, queries.clone(), 1, 1, None);
        let (p4, r4) = pending(&s1, queries.clone(), 0, 1, None);
        execute_batch(&core, vec![p1, p2, p3, p4]);

        let stats = core.stats.snapshot();
        assert_eq!(stats.requests, 4);
        assert_eq!(stats.batches, 1);
        assert_eq!(
            stats.plans_computed, 2,
            "3 same-key requests share one plan"
        );
        assert_eq!(stats.shared_plan_requests, 2);
        assert_eq!(stats.max_batch, 4);

        let out1 = r1.recv().unwrap().unwrap();
        let out2 = r2.recv().unwrap().unwrap();
        let out3 = r3.recv().unwrap().unwrap();
        let out4 = r4.recv().unwrap().unwrap();
        // Identical sessions, identical queries → identical outputs.
        assert_eq!(out1, out2);
        assert_eq!(out1, out3);

        // And each equals the sequential single-caller path, bitwise.
        let want1 = s1.session.lock().attention_sequential(&queries, 1);
        assert_eq!(out1, want1);
        let want4 = s1.session.lock().attention_sequential(&queries, 0);
        assert_eq!(out4, want4);
    }

    /// Two requests for the *same* session in one batch must not deadlock
    /// (the slot is locked once, shared by both).
    #[test]
    fn duplicate_session_in_one_batch_is_safe() {
        let model_cfg = ModelConfig::tiny();
        let db = Db::new(DbConfig::for_tests(model_cfg.clone()));
        let slot = slot_for(&db, &[1, 2, 3]);
        {
            let mut s = slot.session.lock();
            let q = vec![vec![0.5; model_cfg.head_dim]; model_cfg.n_q_heads];
            let kv = vec![vec![0.25; model_cfg.head_dim]; model_cfg.n_kv_heads];
            s.update(&q, &kv, &kv, 0);
        }
        let core = core_for_tests(2);
        let queries = vec![vec![1.0; model_cfg.head_dim]; model_cfg.n_q_heads];
        let (p1, rx1) = pending(&slot, queries.clone(), 0, 1, None);
        let (p2, rx2) = pending(&slot, queries.clone(), 0, 1, None);
        execute_batch(&core, vec![p1, p2]);
        let a = rx1.recv().unwrap().unwrap();
        let b = rx2.recv().unwrap().unwrap();
        assert_eq!(a, b);
        assert_eq!(core.stats.snapshot().plans_computed, 1);
    }

    /// The backstop for panics that slip past front-door validation: the
    /// scheduler thread replies `ExecutionPanicked` to the batch and keeps
    /// serving later requests instead of dying (which would leave every
    /// future caller blocked on `recv` forever).
    #[test]
    fn panicking_batch_is_contained_and_replied() {
        let model_cfg = ModelConfig::tiny();
        let db = Db::new(DbConfig::for_tests(model_cfg.clone()));
        let slot = slot_for(&db, &[1, 2, 3]);
        let core = Arc::new(core_for_tests(2));
        let sched = {
            let core = Arc::clone(&core);
            std::thread::spawn(move || run(core))
        };

        // Oversized head count: the derived kv_head is out of range and the
        // head task panics on the pool (the engine rejects this shape up
        // front; here we drive the scheduler directly to test the backstop).
        let bad = vec![vec![0.0; model_cfg.head_dim]; model_cfg.n_q_heads * 4];
        let (p, rx) = pending(&slot, bad, 0, 1, None);
        core.enqueue(p).unwrap();
        assert_eq!(
            rx.recv().unwrap().unwrap_err(),
            ServeError::ExecutionPanicked
        );

        // The scheduler thread survived, and a well-formed request on the
        // same session serves.
        {
            let mut s = slot.lock();
            let q = vec![vec![0.5; model_cfg.head_dim]; model_cfg.n_q_heads];
            let kv = vec![vec![0.25; model_cfg.head_dim]; model_cfg.n_kv_heads];
            s.update(&q, &kv, &kv, 0);
        }
        let good = vec![vec![1.0; model_cfg.head_dim]; model_cfg.n_q_heads];
        let (p2, rx2) = pending(&slot, good, 0, 1, None);
        core.enqueue(p2).unwrap();
        assert!(rx2.recv().unwrap().is_ok());

        core.shutdown.store(true, Ordering::Release);
        {
            let _q = core.queue.lock();
            core.cv.notify_all();
        }
        sched.join().unwrap();
    }

    /// DRR fairness: a heavy tenant with many queued expensive requests
    /// cannot crowd a light tenant out of the next batch.
    #[test]
    fn drr_lets_light_tenants_through_a_heavy_backlog() {
        let model_cfg = ModelConfig::tiny();
        let db = Db::new(DbConfig::for_tests(model_cfg.clone()));
        let heavy = slot_for(&db, &[1, 2, 3]);
        let light = slot_for(&db, &[4, 5, 6]);
        let q = vec![vec![0.0; model_cfg.head_dim]; model_cfg.n_q_heads];

        let policy = BatchPolicy {
            max_batch: 4,
            quantum: 10,
            ..BatchPolicy::default()
        };
        let mut queue = SchedQueue::default();
        // Heavy enqueues first: 8 requests at 8x the quantum each (the
        // clamp ceiling). Light follows with 2 cheap requests.
        let mut rxs = Vec::new();
        for _ in 0..8 {
            let (p, rx) = pending(&heavy, q.clone(), 0, 80, None);
            queue.push(p);
            rxs.push(rx);
        }
        for _ in 0..2 {
            let (p, rx) = pending(&light, q.clone(), 1, 1, None);
            queue.push(p);
            rxs.push(rx);
        }

        let (batch, shed) = queue.collect(&policy, Duration::ZERO, Duration::ZERO);
        assert!(shed.is_empty());
        assert_eq!(batch.len(), 4);
        let light_in_batch = batch.iter().filter(|p| p.layer == 1).count();
        assert_eq!(
            light_in_batch, 2,
            "both light requests dispatch in the first batch despite the heavy backlog"
        );
        assert_eq!(queue.len(), 6, "remaining heavy requests stay queued");

        // The heavy tenant is not starved either: successive collects
        // drain its lane.
        let mut drained = 0;
        while queue.len() > 0 {
            let (b, s) = queue.collect(&policy, Duration::ZERO, Duration::ZERO);
            assert!(s.is_empty());
            assert!(!b.is_empty(), "collect must make progress");
            drained += b.len();
        }
        assert_eq!(drained, 6);
    }

    /// Bounded queue: submissions beyond the configured depth are rejected
    /// with a typed `Overloaded` carrying a nonzero backoff hint, and a
    /// rejected request never occupies a slot.
    #[test]
    fn full_queue_rejects_with_typed_overload() {
        let model_cfg = ModelConfig::tiny();
        let db = Db::new(DbConfig::for_tests(model_cfg.clone()));
        let slot = slot_for(&db, &[1, 2, 3]);
        let q = vec![vec![0.0; model_cfg.head_dim]; model_cfg.n_q_heads];

        let core = SchedulerCore::new(
            Arc::new(WorkStealingPool::new(1)),
            BatchPolicy {
                max_queue_requests: 2,
                ..BatchPolicy::default()
            },
            Arc::new(SystemClock::new()),
        );
        // No scheduler thread: the queue just fills.
        let (p1, _r1) = pending(&slot, q.clone(), 0, 1, None);
        let (p2, _r2) = pending(&slot, q.clone(), 0, 1, None);
        core.enqueue(p1).unwrap();
        core.enqueue(p2).unwrap();
        let (p3, _r3) = pending(&slot, q.clone(), 0, 1, None);
        match core.enqueue(p3) {
            Err(ServeError::Overloaded {
                queued_requests,
                retry_after_hint,
                ..
            }) => {
                assert_eq!(queued_requests, 2);
                assert!(retry_after_hint > Duration::ZERO);
            }
            other => panic!("expected Overloaded, got {other:?}"),
        }
        assert_eq!(core.queue.lock().len(), 2, "rejected request took no slot");
        assert_eq!(core.stats.snapshot().rejected_overload, 1);

        // The byte bound rejects independently of the request bound.
        let tight = SchedulerCore::new(
            Arc::new(WorkStealingPool::new(1)),
            BatchPolicy {
                max_queue_bytes: 10,
                ..BatchPolicy::default()
            },
            Arc::new(SystemClock::new()),
        );
        let (p, _r) = pending(&slot, q.clone(), 0, 1, None);
        assert!(matches!(
            tight.enqueue(p),
            Err(ServeError::Overloaded { .. })
        ));
    }

    /// Deadline shedding is driven by the injectable clock: requests whose
    /// deadline passes while queued are shed, unexpired ones execute.
    #[test]
    fn expired_requests_are_shed_not_executed() {
        let model_cfg = ModelConfig::tiny();
        let db = Db::new(DbConfig::for_tests(model_cfg.clone()));
        let slot = slot_for(&db, &[1, 2, 3]);
        let q = vec![vec![0.0; model_cfg.head_dim]; model_cfg.n_q_heads];

        let clock = ManualClock::new();
        let policy = BatchPolicy::default();
        let mut queue = SchedQueue::default();
        let (expired, _r1) = pending(&slot, q.clone(), 0, 1, Some(Duration::from_millis(10)));
        let (alive, _r2) = pending(&slot, q.clone(), 1, 1, Some(Duration::from_secs(60)));
        let (forever, _r3) = pending(&slot, q.clone(), 0, 1, None);
        queue.push(expired);
        queue.push(alive);
        queue.push(forever);

        clock.advance(Duration::from_millis(11));
        let (batch, shed) = queue.collect(&policy, Duration::ZERO, clock.now());
        assert_eq!(shed.len(), 1, "only the expired request is shed");
        assert_eq!(shed[0].deadline, Some(Duration::from_millis(10)));
        assert_eq!(batch.len(), 2);
        assert_eq!(queue.len(), 0);

        // The deadline boundary itself sheds (est_exec = 0, now == dl):
        // a request that cannot finish strictly inside its deadline is
        // counted as failed by the SLO, so executing it wastes capacity.
        let mut queue = SchedQueue::default();
        let (boundary, _r4) = pending(&slot, q.clone(), 0, 1, Some(clock.now()));
        queue.push(boundary);
        let (batch, shed) = queue.collect(&policy, Duration::ZERO, clock.now());
        assert!(batch.is_empty());
        assert_eq!(shed.len(), 1);

        // A non-zero execution estimate widens the margin: a deadline
        // inside `now + est` is shed, one outside it executes.
        let est = Duration::from_millis(5);
        let mut queue = SchedQueue::default();
        let inside = clock.now() + Duration::from_millis(4);
        let outside = clock.now() + Duration::from_millis(6);
        let (too_late, _r5) = pending(&slot, q.clone(), 0, 1, Some(inside));
        let (in_time, _r6) = pending(&slot, q.clone(), 1, 1, Some(outside));
        queue.push(too_late);
        queue.push(in_time);
        let (batch, shed) = queue.collect(&policy, est, clock.now());
        assert_eq!(shed.len(), 1);
        assert_eq!(shed[0].deadline, Some(inside));
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].deadline, Some(outside));
    }

    /// Batches respect `max_batch` and the remainder stays queued in
    /// arrival order per session.
    #[test]
    fn batches_are_bounded_by_policy() {
        let model_cfg = ModelConfig::tiny();
        let db = Db::new(DbConfig::for_tests(model_cfg.clone()));
        let slot = slot_for(&db, &[1, 2, 3]);
        let q = vec![vec![0.0; model_cfg.head_dim]; model_cfg.n_q_heads];
        let policy = BatchPolicy {
            max_batch: 3,
            ..BatchPolicy::default()
        };
        let mut queue = SchedQueue::default();
        for _ in 0..8 {
            let (p, _r) = pending(&slot, q.clone(), 0, 1, None);
            queue.push(p);
        }
        let (b1, _) = queue.collect(&policy, Duration::ZERO, Duration::ZERO);
        assert_eq!(b1.len(), 3);
        let (b2, _) = queue.collect(&policy, Duration::ZERO, Duration::ZERO);
        assert_eq!(b2.len(), 3);
        let (b3, _) = queue.collect(&policy, Duration::ZERO, Duration::ZERO);
        assert_eq!(b3.len(), 2);
        assert_eq!(queue.len(), 0);
    }
}
