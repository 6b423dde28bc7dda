//! Serve-side observability: the scheduler's metrics, request-span
//! aggregation, and the flight recorder, all built on `alaya-telemetry`.
//!
//! Every request that enters [`SchedulerCore::enqueue`] opens a span and
//! closes it exactly once — `rejected` at the queue bound, `shed` when
//! its deadline expires, `executed` on a successful reply, or `panicked`
//! when its batch aborts. Stage boundaries ride the scheduler's
//! injectable clock (`enqueue → batch-assemble` = queue, `assemble →
//! plans noted` = plan, `pool scope` = exec, `enqueue → reply` = total)
//! and aggregate into log-bucketed histograms; nothing here reads time
//! itself, and nothing on the hot path locks or allocates.
//!
//! The same cells the registry snapshots also *drive* the scheduler: the
//! observed per-batch execution time feeds an EWMA
//! ([`SchedTelemetry::observe_batch`]) whose estimate sizes
//! `retry_after_hint` and the deadline-shedding margin, so backpressure
//! tracks the live machine.
//!
//! [`SchedulerCore::enqueue`]: crate::scheduler::SchedulerCore

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
/// counters, per-stage histograms, queue gauges, the flight recorder,
/// and the EWMA-calibrated execution estimate.
pub(crate) struct SchedTelemetry {
    pub(crate) registry: Arc<Registry>,
    pub(crate) recorder: Arc<FlightRecorder>,

    // SchedulerStats cells.
    pub(crate) requests: Arc<Counter>,
    pub(crate) batches: Arc<Counter>,
    pub(crate) plans_computed: Arc<Counter>,
    pub(crate) shared_plan_requests: Arc<Counter>,
    pub(crate) max_batch: Arc<Gauge>,
    pub(crate) shed_deadline: Arc<Counter>,
    pub(crate) rejected_overload: Arc<Counter>,

    // Span lifecycle: opened == executed + shed + rejected + panicked
    // once the system quiesces.
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
    /// Wall time of each dispatched batch (chaos delays included) — the
    /// EWMA's input, kept as a histogram so the calibration is auditable.
    pub(crate) batch_exec: Arc<Histogram>,

    // Queue level gauges (set under the queue lock; plain relaxed stores).
    pub(crate) queue_depth: Arc<Gauge>,
    pub(crate) queue_bytes: Arc<Gauge>,

    /// EWMA-calibrated per-batch execution estimate in nanoseconds; zero
    /// until the first batch is observed. Written only by the scheduler
    /// thread; read relaxed by enqueue (retry hints) and collect
    /// (deadline margins).
    est_exec_nanos: AtomicU64,
}

impl SchedTelemetry {
    pub(crate) fn new() -> Self {
        let registry = Arc::new(Registry::new());
        let r = &registry;
        Self {
            recorder: Arc::new(FlightRecorder::new(FLIGHT_RECORDER_EVENTS)),
            requests: r.counter("serve.sched.requests"),
            batches: r.counter("serve.sched.batches"),
            plans_computed: r.counter("serve.sched.plans_computed"),
            shared_plan_requests: r.counter("serve.sched.shared_plan_requests"),
            max_batch: r.gauge("serve.sched.max_batch"),
            shed_deadline: r.counter("serve.sched.shed_deadline"),
            rejected_overload: r.counter("serve.sched.rejected_overload"),
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
            queue_bytes: r.gauge("serve.queue.bytes"),
            est_exec_nanos: AtomicU64::new(0),
            registry,
        }
    }

    /// The [`SchedulerStats`] snapshot, now derived from the registry
    /// cells (API-compatible with the old bespoke atomics).
    pub(crate) fn snapshot(&self) -> SchedulerStats {
        SchedulerStats {
            requests: self.requests.get(),
            batches: self.batches.get(),
            plans_computed: self.plans_computed.get(),
            shared_plan_requests: self.shared_plan_requests.get(),
            max_batch: self.max_batch.get().max(0) as u64,
            shed_deadline: self.shed_deadline.get(),
            rejected_overload: self.rejected_overload.get(),
        }
    }

    /// The calibrated per-batch execution estimate.
    pub(crate) fn est_exec(&self) -> Duration {
        Duration::from_nanos(self.est_exec_nanos.load(Ordering::Relaxed))
    }

    /// Folds one observed batch (wall time, chaos delay included) into
    /// the histogram and the EWMA. The calibrated estimate drives
    /// scheduling decisions (retry hints, shedding), not just reporting.
    pub(crate) fn observe_batch(&self, elapsed: Duration) {
        let obs = nanos(elapsed);
        self.batch_exec.record(obs);
        let old = self.est_exec_nanos.load(Ordering::Relaxed);
        let new = if old == 0 {
            // First observation: adopt it whole rather than creeping up
            // from zero one eighth at a time.
            obs
        } else {
            old.saturating_sub(old >> EWMA_SHIFT)
                .saturating_add(obs >> EWMA_SHIFT)
        };
        // Single writer (the scheduler thread), so load-modify-store is
        // not a lost-update risk.
        self.est_exec_nanos.store(new, Ordering::Relaxed);
    }
}

/// Per-session (lane) counters, carried on the session slot (detached
/// telemetry cells, not in the registry).
#[derive(Default)]
pub(crate) struct LaneCounters {
    pub(crate) executed: Counter,
    pub(crate) shed_deadline: Counter,
    pub(crate) rejected_overload: Counter,
}

/// Latency summary of one span stage (or the per-batch execution
/// distribution), extracted from a histogram snapshot.
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
    /// batch assembly → plans noted (grouping, session locks, optimizer).
    pub plan: StageStats,
    /// pool execution of the batch's head tasks.
    pub exec: StageStats,
    /// enqueue → reply, executed requests only.
    pub total: StageStats,
    /// Per-*batch* wall time (the EWMA calibration input).
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

/// One tenant lane's view: instantaneous queue state plus lifetime
/// outcome counters.
#[derive(Clone, Debug)]
pub struct LaneStats {
    pub session: SessionId,
    /// Requests currently queued in this session's DRR lane.
    pub queued: usize,
    /// The lane's banked DRR deficit (0 when the lane is idle).
    pub deficit: u64,
    pub executed: u64,
    pub shed_deadline: u64,
    pub rejected_overload: u64,
}

/// A point-in-time view of the engine's telemetry, from
/// [`ServeEngine::telemetry`](crate::ServeEngine::telemetry).
#[derive(Clone, Debug)]
pub struct TelemetrySnapshot {
    /// The classic scheduler counters (same cells, same values as
    /// [`ServeEngine::stats`](crate::ServeEngine::stats)).
    pub stats: SchedulerStats,
    pub stages: StageBreakdown,
    pub spans: SpanCounts,
    /// Per-admitted-session lane stats, sorted by session id.
    pub lanes: Vec<LaneStats>,
    /// The EWMA-calibrated per-batch execution estimate currently driving
    /// `retry_after_hint` and deadline shedding.
    pub est_exec: Duration,
    /// The flight recorder's most recent panic dump, if any batch has
    /// panicked.
    pub last_panic_dump: Option<String>,
    /// Every registered metric (renderable via
    /// [`RegistrySnapshot::to_json`] / `to_prometheus`).
    pub registry: RegistrySnapshot,
}

impl TelemetrySnapshot {
    pub(crate) fn collect(stats: &SchedTelemetry, lanes: Vec<LaneStats>) -> Self {
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
            lanes,
            est_exec: stats.est_exec(),
            last_panic_dump: stats.recorder.last_panic_dump(),
            registry: stats.registry.snapshot(),
        }
    }
}
