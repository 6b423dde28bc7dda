//! The cross-session attention scheduler.
//!
//! Callers from many threads submit attention requests; a dedicated
//! scheduler thread collects them into *bounded* batches, plans them and
//! hands each one back to the thread that asked for it, which executes it.
//! The scheduler:
//!
//! 1. **Collects** a batch off the front of one arrival-order queue:
//!    *bounded size* (at most [`MAX_BATCH`] requests, so the planning ahead
//!    of a request stays bounded however deep the queue is), a *dispatch
//!    window* (an under-full batch lingers up to
//!    [`ServeConfig::dispatch_window`] collecting batchmates, buying the
//!    cross-session plan sharing below), and *deadline shedding* (a
//!    request whose deadline cannot be met anymore — `now` plus the
//!    measured per-batch execution estimate is past it — is answered with
//!    a typed [`ServeError::DeadlineExceeded`] instead of executing).
//!    Queue depth is bounded at submission, by request count
//!    ([`ServeConfig::max_queue_requests`]): `SchedulerCore::enqueue`
//!    rejects with [`ServeError::Overloaded`] rather than queueing without
//!    bound. One queue in arrival order keeps each session's requests in
//!    the order they were made.
//! 2. **Plans and snapshots** each request under its session's lock, one
//!    lock at a time. Requests are grouped by `(stored context, layer,
//!    reused prefix)`; sessions in one group have identical [`QuerySpec`]s,
//!    so the optimizer runs **once per group** and every member executes
//!    under the shared plan — the cross-session analogue of the paper's
//!    "one index, many consumers" economics. The lock is released after
//!    logging the plan and taking a [`SessionView`] snapshot (two `Arc`
//!    bumps).
//! 3. **Hands back** each member's `Job` — its snapshot, its group's
//!    plan and the batch's start instant — in the one reply of `finish`,
//!    and goes on to collect the next batch. Every queued request gets
//!    exactly one reply there, a job or a typed error, and its session
//!    slot (hence its admission reservation) is released before the reply
//!    is sent.
//!
//! The requester runs its job through [`alaya_core::session::execute`], the
//! fan-out `Session::attention` uses too, with the pool's workers divided
//! by the engine's live sessions as its share: every head on its own
//! thread at a share of 1, and otherwise one task on its own thread for a
//! short request, one pool task per query head for a long one. Heads are
//! independent and each writes only its own output, so the result is
//! bitwise deterministic for any share, worker count or steal order, and
//! requests from different sessions execute side by side instead of
//! queueing behind one executor. The requester drops the snapshot before
//! it returns — so its next `update` finds its local window unshared and
//! copies nothing — and closes the span there with `close_span`: executed
//! or panicked, the exec and total stages, and the EWMA input. Shed
//! requests, and members of a batch whose planning panicked, are closed by
//! `finish`.
//!
//! All time is read through the engine's injectable [`Clock`], so deadline
//! and window logic is deterministic under the chaos harness's
//! [`ManualClock`]. With the `instrumented` feature the loop carries a
//! batch-delay failpoint (`CHAOS_BATCH_DELAY`) simulating slow execution;
//! the delay counts towards every member's EWMA observation.
//!
//! No thread holds a session lock across execution or holds two at once:
//! an `update` that races a batch waits for one snapshot at most, and the
//! snapshot executes on the state as of its dispatch — the per-session
//! ordering contract of the `AttentionBackend` seam (a caller's `update`
//! precedes its `attention`) holds because the caller executes its own
//! request before it returns.
//!
//! [`SessionView`]: alaya_core::session::SessionView
//! [`ServeConfig::dispatch_window`]: crate::engine::ServeConfig::dispatch_window
//! [`ServeConfig::max_queue_requests`]: crate::engine::ServeConfig::max_queue_requests
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

use alaya_core::session::SessionView;
use alaya_core::stored::ContextId;
use alaya_core::Session;
use alaya_device::clock::{Clock, SystemClock};
use alaya_device::memory::MemoryGuard;
use alaya_query::optimizer::Plan;

use crate::engine::ServeConfig;
use crate::telemetry::{nanos, SchedTelemetry};

pub use crate::error::ServeError;

/// Failpoint: the scheduler sleeps before planning a collected batch,
/// simulating a slow tenant / slow device so queued requests pile up and
/// deadlines expire. Fired with no locks held.
#[cfg(feature = "instrumented")]
pub const CHAOS_BATCH_DELAY: &str = "serve.sched.batch_delay";

/// Most requests the scheduler plans in one batch; the rest wait for the
/// next. Also the unit of `retry_after_hint`'s "batches ahead".
pub const MAX_BATCH: usize = 64;

/// One registered session: its one lock.
pub(crate) struct SessionSlot {
    state: Mutex<SlotState>,
}

/// What the session lock guards: the session and the device reservation
/// that keeps the tracker in step with its local KV.
pub(crate) struct SlotState {
    pub(crate) session: Session,
    /// Local tokens the reservation covers.
    pub(crate) covered_tokens: usize,
    /// The admission reservation, grown in place by one chunk each time the
    /// local KV outgrows what it covers; dropping the slot releases it.
    pub(crate) reservation: MemoryGuard,
}

impl SessionSlot {
    pub(crate) fn new(state: SlotState) -> Self {
        Self {
            state: Mutex::new_named(state, "serve.session"),
        }
    }

    /// Locks the session. No holder runs attention under it: the scheduler
    /// plans, logs the plan and takes a [`Session::snapshot`], then
    /// releases it before anything executes, `store` clones the session and
    /// releases it before the build, and every other holder appends whole
    /// entries (`update`, `note_tokens`, reservation growth) or reads. So
    /// the lock is held for microseconds, and the `parking_lot` lock having
    /// no poisoning costs nothing: a panic under it cannot leave the
    /// session half-mutated.
    pub(crate) fn lock(&self) -> MutexGuard<'_, SlotState> {
        self.state.lock()
    }
}

/// What the scheduler hands back to a dispatched request's requester, who
/// executes it: its session snapshot and plan, the instant it was queued,
/// and the instant its batch started (before the chaos delay) — the start
/// of its EWMA observation.
pub(crate) struct Job {
    pub(crate) view: SessionView,
    pub(crate) plan: Plan,
    pub(crate) enqueued: Duration,
    pub(crate) batch_start: Duration,
}

/// A queued attention request. Only [`finish`] replies to it, and it
/// consumes the request, so no request is answered twice. Its queries
/// stay with the requester: planning does not read them.
pub(crate) struct Pending {
    pub(crate) slot: Arc<SessionSlot>,
    pub(crate) layer: usize,
    pub(crate) reply: Sender<Result<Job, ServeError>>,
    /// Scheduler-clock time this request entered the queue.
    pub(crate) enqueued: Duration,
    /// Absolute scheduler-clock deadline; `None` = never shed.
    pub(crate) deadline: Option<Duration>,
}

/// Monotonic scheduler counters (observability + batching assertions in
/// tests and benches). Once in-flight requests drain, every opened span
/// has closed: `opened == closed()`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedulerStats {
    /// Attention requests dispatched in a batch: executed, or panicked in
    /// planning or execution.
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
    /// request bound.
    pub rejected_overload: u64,
    /// Spans opened: every submission that reached the queue's front door.
    pub opened: u64,
    /// Requests whose requester executed them.
    pub executed: u64,
    /// Requests whose batch's planning or own execution panicked.
    pub panicked: u64,
}

impl SchedulerStats {
    /// Spans closed so far, by any outcome.
    pub fn closed(&self) -> u64 {
        self.executed + self.shed_deadline + self.rejected_overload + self.panicked
    }
}

/// Pops the next batch off the front of `queue`: up to [`MAX_BATCH`]
/// requests in arrival order, shedding on the way every request whose
/// deadline can no longer be met (`now + est_exec` at or past it;
/// `est_exec` is the measured per-batch execution estimate). Returns
/// `(batch, shed)`; their union is nonempty whenever the queue is.
fn collect(
    queue: &mut VecDeque<Pending>,
    est_exec: Duration,
    now: Duration,
) -> (Vec<Pending>, Vec<Pending>) {
    let mut batch = Vec::new();
    let mut shed = Vec::new();
    while batch.len() < MAX_BATCH {
        let Some(p) = queue.pop_front() else {
            break;
        };
        if p.deadline
            .is_some_and(|dl| now.saturating_add(est_exec) >= dl)
        {
            shed.push(p);
        } else {
            batch.push(p);
        }
    }
    (batch, shed)
}

/// State shared between the engine (producer side) and the scheduler
/// thread (consumer side). It holds no pool: the scheduler executes
/// nothing.
pub(crate) struct SchedulerCore {
    /// Queued requests in arrival order.
    pub(crate) queue: Mutex<VecDeque<Pending>>,
    pub(crate) cv: Condvar,
    pub(crate) shutdown: AtomicBool,
    pub(crate) stats: SchedTelemetry,
    /// How long an under-full batch lingers for batchmates.
    pub(crate) window: Duration,
    /// Submissions beyond this many queued requests are rejected.
    pub(crate) max_queue_requests: usize,
    pub(crate) clock: Arc<dyn Clock>,
    /// Armed failpoint registry (chaos builds only); a `OnceLock` rather
    /// than a lock so probing it adds no lock site and no ordering edges.
    #[cfg(feature = "instrumented")]
    pub(crate) chaos: OnceLock<Arc<alaya_chaos::Chaos>>,
}

impl SchedulerCore {
    /// The dispatch window, queue bound and clock of `opts` (the
    /// monotonic [`SystemClock`] when it names none).
    pub(crate) fn new(opts: &ServeConfig) -> Self {
        Self {
            queue: Mutex::new_named(VecDeque::new(), "serve.sched.queue"),
            cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            stats: SchedTelemetry::default(),
            window: opts.dispatch_window,
            max_queue_requests: opts.max_queue_requests.max(1),
            clock: opts
                .clock
                .clone()
                .unwrap_or_else(|| Arc::new(SystemClock::new())),
            #[cfg(feature = "instrumented")]
            chaos: OnceLock::new(),
        }
    }

    /// Queues a request, or rejects it with [`ServeError::Overloaded`]
    /// when the queue is at its request bound. A rejected request never
    /// occupies a slot: it is counted and dropped here, after the queue
    /// lock is released, so freeing its session `Arc` (possibly the last
    /// reference) runs lock-free.
    pub(crate) fn enqueue(&self, p: Pending) -> Result<(), ServeError> {
        // Span opens at the front door; exactly one close follows —
        // rejected here, shed or plan-panicked in `finish`, or executed or
        // panicked by the requester.
        self.stats.spans_opened.inc();
        let mut q = self.queue.lock();
        let queued = q.len();
        if queued < self.max_queue_requests {
            q.push_back(p);
            self.cv.notify_one();
            return Ok(());
        }
        drop(q);
        self.stats.spans_rejected.inc();
        Err(ServeError::Overloaded {
            queued_requests: queued,
            retry_after_hint: self.retry_after_hint(queued),
        })
    }

    /// Client-backoff estimate: batches ahead of a new submission times
    /// the measured per-batch execution estimate (1 ms floor before the
    /// first batch has been observed — "come back after the queue has
    /// turned over at least once", not "hammer immediately").
    fn retry_after_hint(&self, queued: usize) -> Duration {
        let batches_ahead = (queued / MAX_BATCH + 1) as u32;
        let est = self.stats.est_exec();
        let per_batch = if est.is_zero() {
            Duration::from_millis(1)
        } else {
            est
        };
        per_batch.saturating_mul(batches_ahead)
    }
}

/// The scheduler thread's main loop: collect → shed → plan and hand back,
/// until shutdown is signalled *and* the queue is empty (queued requests
/// are always answered — with a job or shed — never dropped).
pub(crate) fn run(core: Arc<SchedulerCore>) {
    loop {
        let (batch, shed) = {
            let mut q = core.queue.lock();
            loop {
                if q.is_empty() {
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
                let window = core.window;
                if !window.is_zero()
                    && q.len() < MAX_BATCH
                    && !core.shutdown.load(Ordering::Acquire)
                {
                    let opened = core.clock.now();
                    loop {
                        let elapsed = core.clock.now().saturating_sub(opened);
                        if elapsed >= window
                            || q.len() >= MAX_BATCH
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
                // read fresh per collect. Only this thread pops, so the
                // queue is still nonempty and so is what `collect` returns.
                break collect(&mut q, core.stats.est_exec(), core.clock.now());
            }
        };

        // Shed requests are answered outside the queue lock.
        for p in shed {
            finish(&core, p, Err(SpanEnd::Shed));
        }
        if !batch.is_empty() {
            dispatch(&core, batch);
        }
    }
}

/// How a queued request's span closes.
pub(crate) enum SpanEnd {
    /// Its requester executed it, starting at `started`; its batch started
    /// at `batch_start`.
    Executed {
        started: Duration,
        batch_start: Duration,
    },
    /// Its deadline could no longer be met.
    Shed,
    /// Its planning or its execution panicked; its batch started at
    /// `batch_start`.
    Panicked { batch_start: Duration },
}

/// Closes a queued request's span now: counts its outcome once, in its
/// span cell, records its stages and folds a dispatched request's batch
/// start → now into the EWMA. Returns the time since `enqueued`.
pub(crate) fn close_span(core: &SchedulerCore, enqueued: Duration, end: SpanEnd) -> Duration {
    let stats = &core.stats;
    let now = core.clock.now();
    let waited = now.saturating_sub(enqueued);
    match end {
        SpanEnd::Executed {
            started,
            batch_start,
        } => {
            stats.observe_batch(now.saturating_sub(batch_start));
            stats.stage_exec.record(nanos(now.saturating_sub(started)));
            // enqueue → execution end, the end-to-end number the bench
            // reconciles against its own measurements.
            stats.stage_total.record(nanos(waited));
            stats.spans_executed.inc();
        }
        SpanEnd::Shed => stats.spans_shed.inc(),
        SpanEnd::Panicked { batch_start } => {
            stats.observe_batch(now.saturating_sub(batch_start));
            stats.spans_panicked.inc();
        }
    }
    waited
}

/// Answers a queued request with its job, or closes its span with `end`
/// and answers with the matching error; either way it releases the
/// session slot first and then sends the one reply.
fn finish(core: &SchedulerCore, p: Pending, job: Result<Job, SpanEnd>) {
    let Pending {
        slot,
        reply,
        enqueued,
        ..
    } = p;
    let result = job.map_err(|end| {
        let shed = matches!(end, SpanEnd::Shed);
        let queued_for = close_span(core, enqueued, end);
        if shed {
            ServeError::DeadlineExceeded { queued_for }
        } else {
            ServeError::ExecutionPanicked
        }
    });
    // Release the slot *before* replying: a caller that receives this
    // reply may execute, return and `close` the session at once, and
    // expect its admission reservation back.
    drop(slot);
    // A dropped receiver means the caller gave up; nothing to do.
    let _ = reply.send(result);
}

/// Plans a collected batch and hands every member its job, or closes
/// every member with `ExecutionPanicked` if planning panicked.
fn dispatch(core: &SchedulerCore, batch: Vec<Pending>) {
    // Each member's EWMA observation starts *before* the chaos delay: an
    // injected slow batch must look slow to the calibration, exactly as a
    // genuinely slow device would.
    let t_batch0 = core.clock.now();

    // Chaos: simulate a slow batch (no locks held while sleeping).
    #[cfg(feature = "instrumented")]
    if let Some(chaos) = core.chaos.get() {
        if let Some(delay) = chaos.fire_delay(CHAOS_BATCH_DELAY) {
            std::thread::sleep(delay);
        }
    }

    // A panic while planning must not kill the scheduler thread: queued
    // and future requests would then block on `recv` forever. Catch the
    // unwind, answer every member with a typed error, and keep serving.
    match catch_unwind(AssertUnwindSafe(|| plan_batch(core, &batch, t_batch0))) {
        Ok(jobs) => {
            for (p, job) in batch.into_iter().zip(jobs) {
                finish(core, p, Ok(job));
            }
        }
        Err(_) => {
            for p in batch {
                let end = SpanEnd::Panicked {
                    batch_start: t_batch0,
                };
                finish(core, p, Err(end));
            }
        }
    }
}

/// `(stored context, layer, reused prefix)`: requests with equal keys have
/// equal [`QuerySpec`](alaya_query::optimizer::QuerySpec)s.
type GroupKey = (Option<ContextId>, usize, usize);

/// Plans and snapshots `batch`, returning one job per member in order.
/// The scheduler keeps no snapshot: each lives in its job until the
/// requester has executed it.
fn plan_batch(core: &SchedulerCore, batch: &[Pending], batch_start: Duration) -> Vec<Job> {
    let stats = &core.stats;
    // Batch assembled: the queue stage of every member's span closes here.
    let t_assembled = core.clock.now();
    for p in batch {
        stats
            .stage_queue
            .record(nanos(t_assembled.saturating_sub(p.enqueued)));
    }
    stats.batches.inc();
    stats.max_batch.record_max(batch.len() as i64);

    // Plan once per (context, layer, reused prefix) group, log the plan,
    // snapshot: one session lock at a time, each released before the next
    // is taken and before anything executes.
    let mut plans: HashMap<GroupKey, Plan> = HashMap::new();
    let jobs: Vec<Job> = batch
        .iter()
        .map(|p| {
            let session = &mut p.slot.lock().session;
            // Tests stand in for an optimizer bug here.
            #[cfg(test)]
            assert_ne!(p.layer, tests::PANICKING_LAYER, "planning panicked");
            let key = (session.base().map(|b| b.id), p.layer, session.reused_len());
            let plan = plans.entry(key).or_insert_with(|| session.plan(p.layer));
            session.note_plan(plan);
            Job {
                view: session.snapshot(),
                plan: plan.clone(),
                enqueued: p.enqueued,
                batch_start,
            }
        })
        .collect();
    stats.plans_computed.add(plans.len() as u64);
    stats
        .shared_plan_requests
        .add((batch.len() - plans.len()) as u64);
    // Plan stage: locking + grouping + optimizer + snapshots, amortized
    // over the batch — recorded once per member so stage counts reconcile.
    let t_planned = core.clock.now();
    let plan_nanos = nanos(t_planned.saturating_sub(t_assembled));
    for _ in batch {
        stats.stage_plan.record(plan_nanos);
    }
    jobs
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::engine::run_job;
    use alaya_core::{Db, DbConfig};
    use alaya_device::clock::ManualClock;
    use alaya_device::memory::MemoryTracker;
    use alaya_device::pool::WorkStealingPool;
    use alaya_llm::backend::AttentionBackend as _;
    use alaya_llm::kv::KvCache;
    use alaya_llm::{FullKvBackend, Model, ModelConfig};
    use alaya_vector::rng::{gaussian_vec, seeded};
    use std::sync::mpsc;

    fn slot_for(db: &Db, prompt: &[u32]) -> Arc<SessionSlot> {
        let (session, _) = db.create_session(prompt);
        Arc::new(SessionSlot::new(SlotState {
            session,
            covered_tokens: usize::MAX,
            reservation: MemoryTracker::unbounded().alloc(0).unwrap(),
        }))
    }

    fn core_for_tests() -> SchedulerCore {
        SchedulerCore::new(&ServeConfig::default())
    }

    type ReplyRx = mpsc::Receiver<Result<Job, ServeError>>;

    fn pending(
        slot: &Arc<SessionSlot>,
        layer: usize,
        deadline: Option<Duration>,
    ) -> (Pending, ReplyRx) {
        let (tx, rx) = mpsc::channel();
        (
            Pending {
                slot: Arc::clone(slot),
                layer,
                reply: tx,
                enqueued: Duration::ZERO,
                deadline,
            },
            rx,
        )
    }

    /// A request's one reply: after it, the sender hangs up (`finish`
    /// drops it) without sending another.
    fn one_reply(rx: &ReplyRx) -> Result<Job, ServeError> {
        let reply = rx.recv().unwrap();
        assert!(rx.recv().is_err(), "a second reply");
        reply
    }

    /// Receives a request's job and runs it the way the engine's requester
    /// does.
    fn serve(
        core: &SchedulerCore,
        pool: &WorkStealingPool,
        rx: &ReplyRx,
        queries: &[Vec<f32>],
        layer: usize,
    ) -> Result<Vec<Vec<f32>>, ServeError> {
        let job = one_reply(rx)?;
        run_job(core, pool, pool.threads(), queries, layer, job)
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

        let core = core_for_tests();
        let pool = WorkStealingPool::new(4);
        let mut rng = seeded(5);
        let queries: Vec<Vec<f32>> = (0..model_cfg.n_q_heads)
            .map(|_| gaussian_vec(&mut rng, model_cfg.head_dim, 1.0))
            .collect();

        let (p1, r1) = pending(&s1, 1, None);
        let (p2, r2) = pending(&s2, 1, None);
        let (p3, r3) = pending(&s3, 1, None);
        let (p4, r4) = pending(&s1, 0, None);
        dispatch(&core, vec![p1, p2, p3, p4]);

        let out1 = serve(&core, &pool, &r1, &queries, 1).unwrap();
        let out2 = serve(&core, &pool, &r2, &queries, 1).unwrap();
        let out3 = serve(&core, &pool, &r3, &queries, 1).unwrap();
        let out4 = serve(&core, &pool, &r4, &queries, 0).unwrap();
        let stats = core.stats.snapshot();
        assert_eq!(stats.requests, 4);
        assert_eq!(stats.batches, 1);
        assert_eq!(
            stats.plans_computed, 2,
            "3 same-key requests share one plan"
        );
        assert_eq!(stats.shared_plan_requests, 2);
        assert_eq!(stats.max_batch, 4);

        // Identical sessions, identical queries → identical outputs.
        assert_eq!(out1, out2);
        assert_eq!(out1, out3);

        // And each equals the sequential single-caller path, bitwise.
        let want1 = s1.lock().session.attention_sequential(&queries, 1);
        assert_eq!(out1, want1);
        let want4 = s1.lock().session.attention_sequential(&queries, 0);
        assert_eq!(out4, want4);
    }

    /// Two requests for the *same* session in one batch must not deadlock
    /// (each takes the slot's lock in turn).
    #[test]
    fn duplicate_session_in_one_batch_is_safe() {
        let model_cfg = ModelConfig::tiny();
        let db = Db::new(DbConfig::for_tests(model_cfg.clone()));
        let slot = slot_for(&db, &[1, 2, 3]);
        {
            let q = vec![vec![0.5; model_cfg.head_dim]; model_cfg.n_q_heads];
            let kv = vec![vec![0.25; model_cfg.head_dim]; model_cfg.n_kv_heads];
            slot.lock().session.update(&q, &kv, &kv, 0);
        }
        let core = core_for_tests();
        let pool = WorkStealingPool::new(2);
        let queries = vec![vec![1.0; model_cfg.head_dim]; model_cfg.n_q_heads];
        let (p1, rx1) = pending(&slot, 0, None);
        let (p2, rx2) = pending(&slot, 0, None);
        dispatch(&core, vec![p1, p2]);
        let a = serve(&core, &pool, &rx1, &queries, 0).unwrap();
        let b = serve(&core, &pool, &rx2, &queries, 0).unwrap();
        assert_eq!(a, b);
        assert_eq!(core.stats.snapshot().plans_computed, 1);
    }

    /// An endless stream of random head vectors.
    fn vectors(seed: u64, dim: usize) -> impl Iterator<Item = Vec<f32>> {
        let mut rng = seeded(seed);
        std::iter::repeat_with(move || gaussian_vec(&mut rng, dim, 1.0))
    }

    /// One vector per head.
    type Heads = Vec<Vec<f32>>;

    fn heads(vs: &mut impl Iterator<Item = Vec<f32>>, n: usize) -> Heads {
        vs.take(n).collect()
    }

    /// A database holding one stored context of 520 tokens of random KV,
    /// under a 1-byte GPU budget: a session reusing it plans DIPR, which
    /// reads past the per-head fan-out cutoff (512 rows).
    pub(crate) fn long_context_db(cfg: &ModelConfig) -> (Db, Vec<u32>) {
        let db = Db::new(DbConfig {
            gpu: MemoryTracker::new(1),
            ..DbConfig::for_tests(cfg.clone())
        });
        let mut vs = vectors(11, cfg.head_dim);
        let mut kv = KvCache::new(cfg.n_layers, cfg.n_kv_heads, cfg.head_dim);
        let ctx: Vec<u32> = (0..520).collect();
        for _ in &ctx {
            for layer in 0..cfg.n_layers {
                let (k, v) = (
                    heads(&mut vs, cfg.n_kv_heads),
                    heads(&mut vs, cfg.n_kv_heads),
                );
                kv.push_token(layer, &k, &v);
            }
        }
        db.import(ctx.clone(), kv);
        (db, ctx)
    }

    /// One decode step's K/V at every layer of `slot`'s session.
    fn decode_step(slot: &SessionSlot, cfg: &ModelConfig, vs: &mut impl Iterator<Item = Vec<f32>>) {
        for layer in 0..cfg.n_layers {
            let q = heads(vs, cfg.n_q_heads);
            let (k, v) = (heads(vs, cfg.n_kv_heads), heads(vs, cfg.n_kv_heads));
            slot.lock().session.update(&q, &k, &v, layer);
        }
    }

    /// A batch with a long DIPR request (one task per head), a short one
    /// (one task) and two requests of one session, its jobs run by one
    /// requester thread each, serves bit for bit what
    /// `attention_sequential` computes, on any worker count.
    #[test]
    fn mixed_batch_matches_the_sequential_oracle_on_any_pool() {
        let cfg = ModelConfig::tiny();
        let (db, mut prompt) = long_context_db(&cfg);
        prompt.push(7);
        let long = slot_for(&db, &prompt);
        let twice = slot_for(&db, &prompt);
        let short = slot_for(&db, &[900, 901]);
        let mut vs = vectors(12, cfg.head_dim);
        for slot in [&long, &twice, &short] {
            decode_step(slot, &cfg, &mut vs);
        }
        assert!(long.lock().session.seq_len(1) >= 512);
        assert!(long.lock().session.plan(1).explain().starts_with("DIPR"));
        assert!(short.lock().session.seq_len(0) < 512);

        let requests = [(&long, 1), (&short, 0), (&twice, 0), (&twice, 1)];
        let queries: Vec<Vec<Vec<f32>>> = requests
            .iter()
            .map(|_| heads(&mut vs, cfg.n_q_heads))
            .collect();
        let want: Vec<Vec<Vec<f32>>> = requests
            .iter()
            .zip(&queries)
            .map(|(&(slot, layer), q)| slot.lock().session.attention_sequential(q, layer))
            .collect();
        for threads in [1, 2, 3] {
            let core = core_for_tests();
            let pool = WorkStealingPool::new(threads);
            let (batch, replies): (Vec<_>, Vec<_>) = requests
                .iter()
                .map(|&(slot, layer)| pending(slot, layer, None))
                .unzip();
            dispatch(&core, batch);
            std::thread::scope(|s| {
                for (i, rx) in replies.into_iter().enumerate() {
                    let (core, pool) = (&core, &pool);
                    let ((_, layer), q, want) = (requests[i], &queries[i], &want[i]);
                    s.spawn(move || {
                        let got = serve(core, pool, &rx, q, layer).unwrap();
                        assert_eq!(&got, want, "request {i} on {threads} workers");
                    });
                }
            });
        }
    }

    /// Two sessions over `long_context_db`'s stored context, one decode
    /// step each, with one query set per session and its
    /// `attention_sequential` output at layer 1, where they plan DIPR.
    fn dipr_pair(cfg: &ModelConfig) -> (Db, [Arc<SessionSlot>; 2], [Heads; 2], [Heads; 2]) {
        let (db, mut prompt) = long_context_db(cfg);
        prompt.push(7);
        let slots = [slot_for(&db, &prompt), slot_for(&db, &prompt)];
        let mut vs = vectors(13, cfg.head_dim);
        for slot in &slots {
            decode_step(slot, cfg, &mut vs);
        }
        assert!(slots[0]
            .lock()
            .session
            .plan(1)
            .explain()
            .starts_with("DIPR"));
        let queries = [(); 2].map(|_| heads(&mut vs, cfg.n_q_heads));
        let want = [0, 1].map(|i| slots[i].lock().session.attention_sequential(&queries[i], 1));
        (db, slots, queries, want)
    }

    /// The scheduler plans and hands back; it executes nothing. Two DIPR
    /// requests over a 520-token context (past the per-head fan-out
    /// cutoff) each get exactly one job, and the pool stays idle until the
    /// jobs run. The first runs with a share of 1, on this thread alone;
    /// the second with a share of 2 fans out. Both reproduce
    /// `attention_sequential` bit for bit.
    #[test]
    fn dispatch_hands_each_member_one_job_and_executes_nothing() {
        let cfg = ModelConfig::tiny();
        let (_db, slots, queries, want) = dipr_pair(&cfg);
        let core = core_for_tests();
        let pool = WorkStealingPool::new(2);
        let (batch, replies): (Vec<_>, Vec<_>) =
            slots.iter().map(|slot| pending(slot, 1, None)).unzip();
        dispatch(&core, batch);
        assert_eq!(pool.stats().tasks_executed(), 0, "dispatch ran a task");
        let jobs: Vec<Job> = replies.iter().map(|rx| one_reply(rx).unwrap()).collect();
        for ((i, job), share) in jobs.into_iter().enumerate().zip([1, 2]) {
            let got = run_job(&core, &pool, share, &queries[i], 1, job);
            assert_eq!(got.unwrap(), want[i]);
            if share == 1 {
                assert_eq!(pool.stats().tasks_executed(), 0, "a share of 1 fanned out");
            }
        }
        assert!(pool.stats().tasks_executed() > 0, "a share of 2 fanned out");
        let t = &core.stats;
        assert_eq!((t.spans_executed.get(), t.stage_exec.count()), (2, 2));
    }

    /// The scheduler keeps no snapshot, and each requester drops its own
    /// before its reply returns, so a caller's next `update` finds its
    /// local window unshared.
    #[test]
    fn no_snapshot_outlives_a_reply() {
        let cfg = ModelConfig::tiny();
        let (_db, slots, queries, _) = dipr_pair(&cfg);
        let base = Arc::downgrade(slots[0].lock().session.base().unwrap());
        // The two sessions and the DB's table entry.
        let idle = base.strong_count();
        let core = core_for_tests();
        let pool = WorkStealingPool::new(2);
        let (batch, replies): (Vec<_>, Vec<_>) =
            slots.iter().map(|slot| pending(slot, 1, None)).unzip();
        dispatch(&core, batch);
        let jobs: Vec<Job> = replies.iter().map(|rx| one_reply(rx).unwrap()).collect();
        assert_eq!(base.strong_count(), idle + 2, "one snapshot per job");
        for (i, job) in jobs.into_iter().enumerate() {
            run_job(&core, &pool, 2, &queries[i], 1, job).unwrap();
            assert_eq!(base.strong_count(), idle + 1 - i, "reply {i}");
        }
    }

    /// A layer no model has: planning it panics (a test-only check in
    /// `plan_batch`), standing in for an optimizer bug.
    pub(super) const PANICKING_LAYER: usize = usize::MAX;

    /// The scheduler thread's own backstop, end to end: a panic while
    /// planning a batch answers each member with one `ExecutionPanicked`,
    /// closes every member's span as panicked, and the thread goes on to plan the next batches for the same sessions.
    #[test]
    fn panicking_batch_is_contained_and_replied() {
        let model_cfg = ModelConfig::tiny();
        let db = Db::new(DbConfig::for_tests(model_cfg.clone()));
        let good_slot = slot_for(&db, &[1, 2, 3]);
        let bad_slot = slot_for(&db, &[4, 5, 6]);
        let queries = vec![vec![1.0; model_cfg.head_dim]; model_cfg.n_q_heads];
        for slot in [&good_slot, &bad_slot] {
            let kv = vec![vec![0.25; model_cfg.head_dim]; model_cfg.n_kv_heads];
            slot.lock().session.update(&queries, &kv, &kv, 0);
        }
        let core = Arc::new(core_for_tests());
        let pool = WorkStealingPool::new(2);
        // Queued before the scheduler thread starts: one batch.
        let (good, good_rx) = pending(&good_slot, 0, None);
        let (bad, bad_rx) = pending(&bad_slot, PANICKING_LAYER, None);
        core.enqueue(good).unwrap();
        core.enqueue(bad).unwrap();
        let sched = {
            let core = Arc::clone(&core);
            std::thread::spawn(move || run(core))
        };
        for rx in [&good_rx, &bad_rx] {
            assert_eq!(one_reply(rx).err(), Some(ServeError::ExecutionPanicked));
        }
        let t = &core.stats;
        assert_eq!((t.spans_panicked.get(), t.batches.get()), (2, 1));

        // The thread lives on, and the panic released the session lock.
        for slot in [&good_slot, &bad_slot] {
            let (p, rx) = pending(slot, 0, None);
            core.enqueue(p).unwrap();
            assert!(serve(&core, &pool, &rx, &queries, 0).is_ok());
        }
        assert_eq!(t.spans_executed.get(), 2);

        core.shutdown.store(true, Ordering::Release);
        {
            let _q = core.queue.lock();
            core.cv.notify_all();
        }
        sched.join().unwrap();
    }

    /// A job that panics on its requester fails that request alone: each
    /// member of the batch gets one reply, the batchmate's job executes,
    /// the panicked span closes once, both count as dispatched, and the session whose job panicked serves
    /// its next request.
    #[test]
    fn mixed_panicking_batch_replies_once_to_every_member() {
        let model_cfg = ModelConfig::tiny();
        let db = Db::new(DbConfig::for_tests(model_cfg.clone()));
        let good_slot = slot_for(&db, &[1, 2, 3]);
        let bad_slot = slot_for(&db, &[4, 5, 6]);
        for slot in [&good_slot, &bad_slot] {
            let q = vec![vec![0.5; model_cfg.head_dim]; model_cfg.n_q_heads];
            let kv = vec![vec![0.25; model_cfg.head_dim]; model_cfg.n_kv_heads];
            slot.lock().session.update(&q, &kv, &kv, 0);
        }
        let core = core_for_tests();
        let pool = WorkStealingPool::new(2);
        let good = vec![vec![1.0; model_cfg.head_dim]; model_cfg.n_q_heads];
        // Oversized head count: the derived kv_head is out of range and
        // attention panics (the engine rejects this shape up front; here
        // the job is run directly to test the backstop).
        let bad = vec![vec![0.0; model_cfg.head_dim]; model_cfg.n_q_heads * 4];
        let (p1, rx1) = pending(&good_slot, 0, None);
        let (p2, rx2) = pending(&bad_slot, 0, None);
        dispatch(&core, vec![p1, p2]);

        assert!(serve(&core, &pool, &rx1, &good, 0).is_ok());
        assert_eq!(
            serve(&core, &pool, &rx2, &bad, 0),
            Err(ServeError::ExecutionPanicked)
        );
        let stats = core.stats.snapshot();
        let spans = (stats.executed, stats.panicked);
        assert_eq!((spans, stats.requests, stats.batches), ((1, 1), 2, 1));

        let (p3, rx3) = pending(&bad_slot, 0, None);
        dispatch(&core, vec![p3]);
        assert!(serve(&core, &pool, &rx3, &good, 0).is_ok());
    }

    /// Bounded queue: submissions beyond the configured depth are rejected
    /// with a typed `Overloaded` carrying a nonzero backoff hint, and a
    /// rejected request never occupies a slot.
    #[test]
    fn full_queue_rejects_with_typed_overload() {
        let model_cfg = ModelConfig::tiny();
        let db = Db::new(DbConfig::for_tests(model_cfg.clone()));
        let slot = slot_for(&db, &[1, 2, 3]);

        let core = SchedulerCore::new(&ServeConfig {
            max_queue_requests: 2,
            ..ServeConfig::default()
        });
        // No scheduler thread: the queue just fills.
        let (p1, _r1) = pending(&slot, 0, None);
        let (p2, _r2) = pending(&slot, 0, None);
        core.enqueue(p1).unwrap();
        core.enqueue(p2).unwrap();
        let (p3, _r3) = pending(&slot, 0, None);
        match core.enqueue(p3) {
            Err(ServeError::Overloaded {
                queued_requests,
                retry_after_hint,
            }) => {
                assert_eq!(queued_requests, 2);
                assert!(retry_after_hint > Duration::ZERO);
            }
            other => panic!("expected Overloaded, got {other:?}"),
        }
        assert_eq!(core.queue.lock().len(), 2, "rejected request took no slot");
        assert_eq!(core.stats.snapshot().rejected_overload, 1);
    }

    /// Deadline shedding is driven by the injectable clock: requests whose
    /// deadline passes while queued are shed, unexpired ones execute.
    #[test]
    fn expired_requests_are_shed_not_executed() {
        let model_cfg = ModelConfig::tiny();
        let db = Db::new(DbConfig::for_tests(model_cfg.clone()));
        let slot = slot_for(&db, &[1, 2, 3]);

        let clock = ManualClock::new();
        let mut queue = VecDeque::new();
        let (expired, _r1) = pending(&slot, 0, Some(Duration::from_millis(10)));
        let (alive, _r2) = pending(&slot, 1, Some(Duration::from_secs(60)));
        let (forever, _r3) = pending(&slot, 0, None);
        queue.extend([expired, alive, forever]);

        clock.advance(Duration::from_millis(11));
        let (batch, shed) = collect(&mut queue, Duration::ZERO, clock.now());
        assert_eq!(shed.len(), 1, "only the expired request is shed");
        assert_eq!(shed[0].deadline, Some(Duration::from_millis(10)));
        assert_eq!(batch.len(), 2);
        assert!(queue.is_empty());

        // The deadline boundary itself sheds (est_exec = 0, now == dl):
        // a request that cannot finish strictly inside its deadline is
        // counted as failed by the SLO, so executing it wastes capacity.
        let (boundary, _r4) = pending(&slot, 0, Some(clock.now()));
        queue.push_back(boundary);
        let (batch, shed) = collect(&mut queue, Duration::ZERO, clock.now());
        assert!(batch.is_empty());
        assert_eq!(shed.len(), 1);

        // A non-zero execution estimate widens the margin: a deadline
        // inside `now + est` is shed, one outside it executes.
        let est = Duration::from_millis(5);
        let inside = clock.now() + Duration::from_millis(4);
        let outside = clock.now() + Duration::from_millis(6);
        let (too_late, _r5) = pending(&slot, 0, Some(inside));
        let (in_time, _r6) = pending(&slot, 1, Some(outside));
        queue.extend([too_late, in_time]);
        let (batch, shed) = collect(&mut queue, est, clock.now());
        assert_eq!(shed.len(), 1);
        assert_eq!(shed[0].deadline, Some(inside));
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].deadline, Some(outside));
    }

    /// The tests below queue request `i` at layer `i`, so a batch's
    /// layers read its members' arrival order.
    fn arrival_order(batch: &[Pending]) -> Vec<usize> {
        batch.iter().map(|p| p.layer).collect()
    }

    /// 150 requests from 3 sessions, interleaved, leave in batches of
    /// `MAX_BATCH`, `MAX_BATCH` and the 22 left over, each in arrival
    /// order.
    #[test]
    fn batches_are_bounded_by_policy() {
        let model_cfg = ModelConfig::tiny();
        let db = Db::new(DbConfig::for_tests(model_cfg.clone()));
        let slots = [1, 2, 3].map(|t| slot_for(&db, &[t]));
        let mut queue: VecDeque<Pending> = (0..150)
            .map(|i| pending(&slots[i % 3], i, None).0)
            .collect();
        let mut next = 0;
        for want in [64, 64, 22] {
            let (batch, shed) = collect(&mut queue, Duration::ZERO, Duration::ZERO);
            assert!(shed.is_empty());
            assert_eq!(
                arrival_order(&batch),
                (next..next + want).collect::<Vec<_>>()
            );
            next += want;
        }
        assert_eq!(next, 150);
        assert!(queue.is_empty());
    }

    /// An expired request in the middle of the backlog is shed where it
    /// stands, and the requests around it keep their order.
    #[test]
    fn an_expired_request_mid_queue_is_shed_and_the_rest_keep_order() {
        let model_cfg = ModelConfig::tiny();
        let db = Db::new(DbConfig::for_tests(model_cfg.clone()));
        let slots = [1, 2].map(|t| slot_for(&db, &[t]));
        let now = Duration::from_secs(1);
        let mut queue: VecDeque<Pending> = (0..5)
            .map(|i| pending(&slots[i % 2], i, (i == 2).then_some(now)).0)
            .collect();
        let (batch, shed) = collect(&mut queue, Duration::ZERO, now);
        assert_eq!(arrival_order(&shed), [2]);
        assert_eq!(arrival_order(&batch), [0, 1, 3, 4]);
        assert!(queue.is_empty());
    }
}
