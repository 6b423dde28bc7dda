//! `alaya-telemetry` — the workspace's observability substrate.
//!
//! Serving an SLO needs more than the ability to *count*: it needs to say
//! where a request's latency went, what the p99 of each internal stage
//! is, and what the system was doing in the seconds before a failure.
//! This crate provides the three pieces the serving stack threads through
//! itself for that:
//!
//! * **Metrics** ([`Counter`], [`Gauge`], [`Histogram`]) — relaxed-atomic
//!   cells whose hot-path operations (`inc`, `add`, `record`) are
//!   lock-free and allocation-free. The histogram is log-bucketed
//!   (HDR-style: 64 sub-buckets per power of two, so quantile estimates
//!   carry at most ~1.6% relative error) and covers the full `u64` range,
//!   which makes it safe to feed raw nanosecond latencies.
//! * **A [`Registry`]** of named metrics with a consistent
//!   [`snapshot`](Registry::snapshot) that renders to JSON and
//!   Prometheus-style text. Registration and snapshotting are cold paths
//!   behind a `std::sync::Mutex`; recording never touches it.
//! * **A [`FlightRecorder`]** — a fixed-size ring of recent span/event
//!   records that failpoints and panic handlers dump for post-mortem
//!   debugging (the last dump is retrievable from the recorder).
//!
//! Two properties are load-bearing for the rest of the workspace:
//!
//! 1. **Dependency-free by construction.** This crate depends on nothing
//!    — not even the workspace's `parking_lot` shim. Its two cold-path
//!    locks are `std::sync::Mutex`, which the lock tracer does not
//!    instrument, so recording/snapshotting telemetry can never add a
//!    lock site or a lock-order edge in the `instrumented` build.
//! 2. **Clock-free.** Nothing here reads time. Callers pass timestamps
//!    in (the serving stack passes nanoseconds from its injectable
//!    `alaya_device::clock::Clock`), so instrumentation stays
//!    deterministic under manual clocks and respects the
//!    `time-outside-clock` lint.
//!
//! Instrumentation is always compiled in: its measured cost on the serving
//! path was within run-to-run noise (≤2 %), so there is no uninstrumented
//! build to keep green.

mod metrics;
mod recorder;
mod registry;

pub use metrics::{bucket_width_of, BucketCount, Counter, Gauge, Histogram, HistogramSnapshot};
pub use recorder::{Event, FlightRecorder};
pub use registry::{MetricValue, Registry, RegistrySnapshot};

use std::sync::OnceLock;

/// The process-wide registry, for metrics owned by process-wide
/// singletons (e.g. the global work-stealing pool). Component-scoped
/// owners (a `ServeEngine`, a `BufferManager`) should prefer their own
/// [`Registry`] so concurrent instances do not alias each other's
/// metrics.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}
