//! `alaya-serve` — the concurrent multi-session serving layer.
//!
//! The paper positions AlayaDB as the *data foundation* shared by many
//! inference engines and many concurrent requests; the core crate alone
//! serves one `Session` from one caller. This crate turns a [`Db`] into a
//! multi-tenant serving engine:
//!
//! * **Execution substrate** — a hand-rolled work-stealing thread pool
//!   with scoped execution ([`WorkStealingPool`], re-exported from
//!   `alaya_device::pool` so index construction and per-head attention in
//!   the lower crates run on the *same* workers and never oversubscribe
//!   the machine).
//! * **Scheduler** ([`scheduler`]) — accepts attention requests from many
//!   sessions, groups the ones that target the same
//!   `(stored context, layer, reused prefix)` so the optimizer plans once
//!   per group instead of once per request, fans per-query-head execution
//!   out over the pool, and returns outputs through per-request channels.
//!   Outputs are bitwise-identical to the sequential
//!   [`Session::attention_sequential`] path because scheduling never
//!   changes what each head computes — only where and when.
//! * **Admission control** ([`admission`]) — a session is admitted only
//!   after its worst-case GPU bytes (cached window + session-local KV
//!   growth) are reserved against the [`MemoryTracker`]; the reservation
//!   is an RAII guard released when the session is closed (storing keeps
//!   the session admitted and its bytes reserved until close), so an
//!   overloaded server returns [`ServeError::OutOfMemory`] instead of
//!   thrashing (or panicking).
//! * **Overload control** ([`error`], plus the scheduler's
//!   [`BatchPolicy`]) — batch size, dispatch window and deadline are
//!   explicit policy ([`ServeConfig`]), queue depth is
//!   bounded with typed [`ServeError::Overloaded`] backpressure, requests
//!   carry deadlines and are shed with [`ServeError::DeadlineExceeded`]
//!   when they can no longer be met, and per-session deficit-round-robin
//!   keeps one heavy tenant from monopolizing consecutive batches. Every
//!   accepted request terminates in exactly one reply. The `instrumented`
//!   feature compiles in deterministic failpoints (worker panics, slow
//!   batches — see `alaya-chaos`) that the chaos test suite uses to prove
//!   these properties hold *under* injected faults.
//! * **Observability** ([`telemetry`], built on `alaya-telemetry`) —
//!   every request's lifecycle is traced as a span
//!   (`enqueue → batch-assemble → plan → pool-exec → reply`, or the
//!   shed/reject exits) into log-bucketed per-stage histograms, per-tenant
//!   lane stats ride the session slots, and a ring-buffer flight recorder
//!   captures the events leading up to a batch panic or chaos fault.
//!   Observed batch wall time feeds an EWMA that is the scheduler's only
//!   execution estimate, so `retry_after_hint` and deadline shedding track
//!   the live machine. [`ServeEngine::telemetry`] exposes the whole view.
//!
//! [`ServeEngine`] packages the layers behind a handle-based API:
//! `admit → update/attention (any thread) → store/close`.
//!
//! [`Db`]: alaya_core::Db
//! [`Session::attention_sequential`]: alaya_core::Session::attention_sequential
//! [`MemoryTracker`]: alaya_device::MemoryTracker

pub mod admission;
pub mod engine;
pub mod error;
pub mod scheduler;
pub mod telemetry;

pub use admission::AdmissionController;
pub use alaya_device::pool::{self, Scope, WorkStealingPool};
pub use engine::{ServeConfig, ServeEngine, SessionId};
pub use error::ServeError;
pub use scheduler::{BatchPolicy, SchedulerStats};
pub use telemetry::{LaneStats, SpanCounts, StageBreakdown, StageStats, TelemetrySnapshot};
