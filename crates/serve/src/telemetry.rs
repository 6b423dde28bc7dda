//! Serve-side observability: the scheduler's metrics, request-span
//! aggregation, and the flight recorder, all built on `alaya-telemetry`.
//!
//! Every request that enters the scheduler's queue opens a span and closes
//! it exactly once — `rejected` at the queue bound, `shed` when its
//! deadline expires, `executed` when its requester has run it, or
//! `panicked` when its batch's planning or its own execution panics. Each
//! outcome is counted in one cell, its span cell: the outcome fields of
//! [`SchedulerStats`] are read off the span cells, not kept beside them.
//! Stage boundaries ride the engine's injectable clock (`enqueue →
//! batch-assemble` = queue and `assemble → plans noted` = plan, recorded
//! by the scheduler; the requester's execution = exec and `enqueue →
//! execution end` = total, recorded by the requester, per request) and
//! aggregate into log-bucketed histograms; nothing here reads time itself,
//! and nothing on the hot path locks or allocates.
//!
//! The same cells the registry snapshots also *drive* the scheduler: each
//! executed or panicked request's time from its batch's start (the chaos
//! batch delay included) to its span's close feeds an EWMA
//! whose estimate sizes `retry_after_hint` and the deadline-shedding
//! margin, so backpressure tracks the live machine.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use alaya_telemetry::{
    Counter, FlightRecorder, Gauge, Histogram, HistogramSnapshot, Registry, RegistrySnapshot,
};

use crate::engine::SessionId;
use crate::scheduler::SchedulerStats;

/// Flight-recorder capacity: enough to hold the last few batches' worth
/// of per-request events around a failure, small enough to stay resident.
const FLIGHT_RECORDER_EVENTS: usize = 512;

/// EWMA weight: `new = old + (obs - old) / 2^EWMA_SHIFT`. 1/8 converges
/// in a few batches without letting one chaos-delayed outlier own the
/// estimate.
const EWMA_SHIFT: u32 = 3;

/// `Duration` → saturating nanoseconds (histogram/recorder unit).
#[inline]
pub(crate) fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// The scheduler's telemetry bundle: registry-backed counters (the
/// single source of truth behind [`SchedulerStats`] snapshots), span
/// counters, per-stage histograms, the queue-depth gauge, the flight
/// recorder, and the EWMA-calibrated execution estimate.
pub(crate) struct SchedTelemetry {
    pub(crate) registry: Arc<Registry>,
    pub(crate) recorder: Arc<FlightRecorder>,

    // Batch cells of SchedulerStats.
    pub(crate) batches: Arc<Counter>,
    pub(crate) plans_computed: Arc<Counter>,
    pub(crate) shared_plan_requests: Arc<Counter>,
    pub(crate) max_batch: Arc<Gauge>,

    // Span lifecycle, one cell per outcome: opened == executed + shed +
    // rejected + panicked once the system quiesces.
    pub(crate) spans_opened: Arc<Counter>,
    pub(crate) spans_executed: Arc<Counter>,
    pub(crate) spans_shed: Arc<Counter>,
    pub(crate) spans_rejected: Arc<Counter>,
    pub(crate) spans_panicked: Arc<Counter>,

    // Per-stage latency histograms (nanoseconds, per request).
    pub(crate) stage_queue: Arc<Histogram>,
    pub(crate) stage_plan: Arc<Histogram>,
    pub(crate) stage_exec: Arc<Histogram>,
    pub(crate) stage_total: Arc<Histogram>,
    /// Per executed or panicked request: batch start (chaos delay
    /// included) → its span's close — the EWMA's input, kept as a
    /// histogram so the calibration is auditable.
    pub(crate) batch_exec: Arc<Histogram>,

    /// Queued requests (set under the queue lock; a plain relaxed store).
    pub(crate) queue_depth: Arc<Gauge>,

    /// EWMA-calibrated per-batch execution estimate in nanoseconds; zero
    /// until the first observation. Every requester writes it (an atomic
    /// read-modify-write per observation); enqueue (retry hints) and
    /// collect (deadline margins) read it relaxed.
    est_exec_nanos: AtomicU64,
}

impl SchedTelemetry {
    pub(crate) fn new() -> Self {
        let registry = Arc::new(Registry::new());
        let r = &registry;
        Self {
            recorder: Arc::new(FlightRecorder::new(FLIGHT_RECORDER_EVENTS)),
            batches: r.counter("serve.sched.batches"),
            plans_computed: r.counter("serve.sched.plans_computed"),
            shared_plan_requests: r.counter("serve.sched.shared_plan_requests"),
            max_batch: r.gauge("serve.sched.max_batch"),
            spans_opened: r.counter("serve.span.opened"),
            spans_executed: r.counter("serve.span.executed"),
            spans_shed: r.counter("serve.span.shed"),
            spans_rejected: r.counter("serve.span.rejected"),
            spans_panicked: r.counter("serve.span.panicked"),
            stage_queue: r.histogram("serve.stage.queue"),
            stage_plan: r.histogram("serve.stage.plan"),
            stage_exec: r.histogram("serve.stage.exec"),
            stage_total: r.histogram("serve.stage.total"),
            batch_exec: r.histogram("serve.batch.exec"),
            queue_depth: r.gauge("serve.queue.depth"),
            est_exec_nanos: AtomicU64::new(0),
            registry,
        }
    }

    /// The [`SchedulerStats`] snapshot: batch cells as they are, outcome
    /// fields read off the span cells (`requests` = executed + panicked).
    pub(crate) fn snapshot(&self) -> SchedulerStats {
        SchedulerStats {
            requests: self.spans_executed.get() + self.spans_panicked.get(),
            batches: self.batches.get(),
            plans_computed: self.plans_computed.get(),
            shared_plan_requests: self.shared_plan_requests.get(),
            max_batch: self.max_batch.get().max(0) as u64,
            shed_deadline: self.spans_shed.get(),
            rejected_overload: self.spans_rejected.get(),
        }
    }

    /// The calibrated per-batch execution estimate.
    pub(crate) fn est_exec(&self) -> Duration {
        Duration::from_nanos(self.est_exec_nanos.load(Ordering::Relaxed))
    }

    /// Folds one observation — a request's batch start (chaos delay
    /// included) → its span's close — into the histogram and the EWMA.
    /// The calibrated estimate drives scheduling decisions (retry hints,
    /// shedding), not just reporting.
    pub(crate) fn observe_batch(&self, elapsed: Duration) {
        let obs = nanos(elapsed);
        self.batch_exec.record(obs);
        // Requesters fold concurrently: a read-modify-write, so no
        // observation is lost to a racing one.
        let fold = |old: u64| {
            Some(if old == 0 {
                // First observation: adopt it whole rather than creeping
                // up from zero one eighth at a time.
                obs
            } else {
                old.saturating_sub(old >> EWMA_SHIFT)
                    .saturating_add(obs >> EWMA_SHIFT)
            })
        };
        let _ = self
            .est_exec_nanos
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, fold);
    }
}

/// Per-session outcome counters, carried on the session slot (detached
/// telemetry cells, not in the registry).
#[derive(Default)]
pub(crate) struct SessionCounters {
    pub(crate) executed: Counter,
    pub(crate) shed_deadline: Counter,
    pub(crate) rejected_overload: Counter,
}

/// Latency summary of one span stage (or of the EWMA's input), extracted
/// from a histogram snapshot.
#[derive(Clone, Copy, Debug, Default)]
pub struct StageStats {
    /// Observations recorded.
    pub count: u64,
    pub p50: Duration,
    pub p99: Duration,
    pub mean: Duration,
    pub max: Duration,
}

impl StageStats {
    fn from_hist(h: &HistogramSnapshot) -> Self {
        Self {
            count: h.count,
            p50: Duration::from_nanos(h.quantile(0.50)),
            p99: Duration::from_nanos(h.quantile(0.99)),
            mean: Duration::from_nanos(h.mean() as u64),
            max: Duration::from_nanos(h.max),
        }
    }
}

/// Per-stage latency breakdown of the request span timeline.
#[derive(Clone, Copy, Debug, Default)]
pub struct StageBreakdown {
    /// enqueue → batch assembly (queueing + linger window).
    pub queue: StageStats,
    /// batch assembly → sessions snapshotted (grouping, session locks,
    /// optimizer, plan log).
    pub plan: StageStats,
    /// the requester's execution of its job (on its own thread, fanned
    /// out over the pool for a long request), executed requests only.
    pub exec: StageStats,
    /// enqueue → execution end, executed requests only.
    pub total: StageStats,
    /// Per executed or panicked request: batch start (chaos delay
    /// included) → its span's close (the EWMA calibration input).
    pub batch_exec: StageStats,
}

/// Span lifecycle counters. Once in-flight requests drain,
/// `opened == executed + shed + rejected + panicked`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanCounts {
    pub opened: u64,
    pub executed: u64,
    pub shed: u64,
    pub rejected: u64,
    pub panicked: u64,
}

impl SpanCounts {
    /// Spans closed so far, by any outcome.
    pub fn closed(&self) -> u64 {
        self.executed + self.shed + self.rejected + self.panicked
    }
}

/// One admitted session's lifetime outcome counts.
#[derive(Clone, Debug)]
pub struct SessionStats {
    pub session: SessionId,
    pub executed: u64,
    pub shed_deadline: u64,
    pub rejected_overload: u64,
}

/// A point-in-time view of the engine's telemetry, from
/// [`ServeEngine::telemetry`](crate::ServeEngine::telemetry).
#[derive(Clone, Debug)]
pub struct TelemetrySnapshot {
    /// The classic scheduler counters; the outcome fields are the span
    /// counts under their older names.
    pub stats: SchedulerStats,
    pub stages: StageBreakdown,
    pub spans: SpanCounts,
    /// Per-admitted-session outcome counts, sorted by session id.
    pub sessions: Vec<SessionStats>,
    /// The EWMA-calibrated per-batch execution estimate currently driving
    /// `retry_after_hint` and deadline shedding.
    pub est_exec: Duration,
    /// The flight recorder's most recent panic dump, if any planning or
    /// execution has panicked.
    pub last_panic_dump: Option<String>,
    /// Every registered metric, read by name through
    /// [`RegistrySnapshot::counter`] / `gauge` / `histogram`.
    pub registry: RegistrySnapshot,
}

impl TelemetrySnapshot {
    pub(crate) fn collect(stats: &SchedTelemetry, sessions: Vec<SessionStats>) -> Self {
        Self {
            stats: stats.snapshot(),
            stages: StageBreakdown {
                queue: StageStats::from_hist(&stats.stage_queue.snapshot()),
                plan: StageStats::from_hist(&stats.stage_plan.snapshot()),
                exec: StageStats::from_hist(&stats.stage_exec.snapshot()),
                total: StageStats::from_hist(&stats.stage_total.snapshot()),
                batch_exec: StageStats::from_hist(&stats.batch_exec.snapshot()),
            },
            spans: SpanCounts {
                opened: stats.spans_opened.get(),
                executed: stats.spans_executed.get(),
                shed: stats.spans_shed.get(),
                rejected: stats.spans_rejected.get(),
                panicked: stats.spans_panicked.get(),
            },
            sessions,
            est_exec: stats.est_exec(),
            last_panic_dump: stats.recorder.last_panic_dump(),
            registry: stats.registry.snapshot(),
        }
    }
}
