//! Serve-side observability: the scheduler's metrics and request-span
//! aggregation, built on `alaya-telemetry`.
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
//! The cells also *drive* the scheduler: each executed or panicked
//! request's time from its batch's start (the chaos batch delay included)
//! to its span's close feeds an EWMA whose estimate sizes
//! `retry_after_hint` and the deadline-shedding margin, so backpressure
//! tracks the live machine.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use alaya_telemetry::{Counter, Gauge, Histogram, HistogramSnapshot};

use crate::scheduler::SchedulerStats;

/// EWMA weight: `new = old + (obs - old) / 2^EWMA_SHIFT`. 1/8 converges
/// in a few batches without letting one chaos-delayed outlier own the
/// estimate.
const EWMA_SHIFT: u32 = 3;

/// `Duration` → saturating nanoseconds (the histograms' unit).
#[inline]
pub(crate) fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// The scheduler's telemetry: the batch counters and span cells behind
/// [`SchedulerStats`], per-stage histograms, and the EWMA-calibrated
/// execution estimate.
#[derive(Default)]
pub(crate) struct SchedTelemetry {
    // Batch cells of SchedulerStats.
    pub(crate) batches: Counter,
    pub(crate) plans_computed: Counter,
    pub(crate) shared_plan_requests: Counter,
    pub(crate) max_batch: Gauge,

    // Span lifecycle, one cell per outcome: opened == executed + shed +
    // rejected + panicked once the system quiesces.
    pub(crate) spans_opened: Counter,
    pub(crate) spans_executed: Counter,
    pub(crate) spans_shed: Counter,
    pub(crate) spans_rejected: Counter,
    pub(crate) spans_panicked: Counter,

    // Per-stage latency histograms (nanoseconds, per request).
    pub(crate) stage_queue: Histogram,
    pub(crate) stage_plan: Histogram,
    pub(crate) stage_exec: Histogram,
    pub(crate) stage_total: Histogram,
    /// Per executed or panicked request: batch start (chaos delay
    /// included) → its span's close — the EWMA's input, kept as a
    /// histogram so the calibration is auditable.
    pub(crate) batch_exec: Histogram,

    /// EWMA-calibrated per-batch execution estimate in nanoseconds; zero
    /// until the first observation. Every requester writes it (an atomic
    /// read-modify-write per observation); enqueue (retry hints) and
    /// collect (deadline margins) read it relaxed.
    est_exec_nanos: AtomicU64,
}

impl SchedTelemetry {
    /// The [`SchedulerStats`] snapshot: batch cells as they are, outcome
    /// fields read off the span cells (`requests` = executed + panicked).
    pub(crate) fn snapshot(&self) -> SchedulerStats {
        let executed = self.spans_executed.get();
        let panicked = self.spans_panicked.get();
        SchedulerStats {
            requests: executed + panicked,
            batches: self.batches.get(),
            plans_computed: self.plans_computed.get(),
            shared_plan_requests: self.shared_plan_requests.get(),
            max_batch: self.max_batch.get().max(0) as u64,
            shed_deadline: self.spans_shed.get(),
            rejected_overload: self.spans_rejected.get(),
            opened: self.spans_opened.get(),
            executed,
            panicked,
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

/// A point-in-time view of the engine's telemetry, from
/// [`ServeEngine::telemetry`](crate::ServeEngine::telemetry).
#[derive(Clone, Debug)]
pub struct TelemetrySnapshot {
    /// The scheduler counters, outcome and span counts included.
    pub stats: SchedulerStats,
    pub stages: StageBreakdown,
    /// The EWMA-calibrated per-batch execution estimate currently driving
    /// `retry_after_hint` and deadline shedding.
    pub est_exec: Duration,
}

impl TelemetrySnapshot {
    pub(crate) fn collect(stats: &SchedTelemetry) -> Self {
        Self {
            stats: stats.snapshot(),
            stages: StageBreakdown {
                queue: StageStats::from_hist(&stats.stage_queue.snapshot()),
                plan: StageStats::from_hist(&stats.stage_plan.snapshot()),
                exec: StageStats::from_hist(&stats.stage_exec.snapshot()),
                total: StageStats::from_hist(&stats.stage_total.snapshot()),
                batch_exec: StageStats::from_hist(&stats.batch_exec.snapshot()),
            },
            est_exec: stats.est_exec(),
        }
    }
}
