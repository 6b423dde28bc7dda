//! `alaya-telemetry` — the workspace's observability substrate.
//!
//! Serving an SLO needs more than the ability to *count*: it needs to say
//! where a request's latency went and what the p99 of each internal stage
//! is. This crate provides the metric cells the serving stack threads
//! through itself for that: [`Counter`], [`Gauge`] and [`Histogram`] —
//! relaxed-atomic cells whose hot-path operations (`inc`, `add`, `record`)
//! are lock-free and allocation-free. The histogram is log-bucketed
//! (HDR-style: 64 sub-buckets per power of two, so quantile estimates
//! carry at most ~1.6% relative error) and covers the full `u64` range,
//! which makes it safe to feed raw nanosecond latencies. Each cell is a
//! plain field of the struct that owns it (`SchedulerStats`' cells,
//! `DbStats`, `PoolStats`) and is read through that struct's typed
//! getters; nothing looks a cell up by name.
//!
//! Two properties are load-bearing for the rest of the workspace:
//!
//! 1. **Dependency-free and lock-free by construction.** This crate
//!    depends on nothing — not even the workspace's `parking_lot` shim —
//!    and takes no lock at all, so recording or reading telemetry can
//!    never add a lock site or a lock-order edge in the `instrumented`
//!    build.
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

pub use metrics::{BucketCount, Counter, Gauge, Histogram, HistogramSnapshot};
