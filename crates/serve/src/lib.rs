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
//!   the lower crates run on the *same* workers; a served request's heads
//!   occupy at most the workers per live session, so under load each
//!   requester runs its own heads).
//! * **Scheduler** ([`scheduler`]) — accepts attention requests from many
//!   sessions into one arrival-order queue, takes them off it in batches of
//!   at most [`MAX_BATCH`](scheduler::MAX_BATCH), groups the ones that
//!   target the same
//!   `(stored context, layer, reused prefix)` so the optimizer plans once
//!   per group instead of once per request, and hands each request its
//!   session snapshot and plan through a per-request channel; the
//!   requesting thread executes it through the fan-out `Session::attention`
//!   uses, with the pool's workers divided by the live sessions as its
//!   share (all heads on the requesting thread at a share of 1; otherwise
//!   one task, or one pool task per query head for a long request).
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
//! * **Overload control** ([`error`]) — dispatch window, deadline and
//!   queue bound are explicit policy ([`ServeConfig`]), the queue is
//!   bounded by request count with typed [`ServeError::Overloaded`]
//!   backpressure, and requests carry deadlines and are shed with
//!   [`ServeError::DeadlineExceeded`] when they can no longer be met.
//!   Every accepted request gets exactly one reply from the scheduler — a job
//!   or a typed error — and its span closes exactly once, there or on the
//!   requester that executed it. The `instrumented` feature compiles in
//!   deterministic failpoints (execution and worker panics, slow
//!   batches — see `alaya-chaos`) that the chaos test suite uses to prove
//!   these properties hold *under* injected faults.
//! * **Observability** ([`telemetry`], built on `alaya-telemetry`) —
//!   every request's lifecycle is traced as a span
//!   (`enqueue → batch-assemble → plan → requester exec`, or the
//!   shed/reject exits) into log-bucketed per-stage histograms; each
//!   outcome is counted once, in its span cell, and [`SchedulerStats`]
//!   reads its outcome and span fields from there. Every count is a typed
//!   field, kept once and recorded lock-free. Each request's time from
//!   its batch's start to its execution end feeds an EWMA that is the
//!   scheduler's only execution estimate, so `retry_after_hint` and
//!   deadline shedding track the live machine. [`ServeEngine::telemetry`]
//!   exposes the scheduler's view; the DB and the pool keep their own
//!   counters ([`Db::stats`], [`ServeEngine::pool_stats`]).
//!
//! [`ServeEngine`] packages the layers behind a handle-based API:
//! `admit → update/attention (any thread) → store/close`.
//!
//! [`Db`]: alaya_core::Db
//! [`Db::stats`]: alaya_core::Db::stats
//! [`Session::attention_sequential`]: alaya_core::Session::attention_sequential
//! [`MemoryTracker`]: alaya_device::MemoryTracker

pub mod admission;
pub mod engine;
pub mod error;
pub mod scheduler;
pub mod telemetry;

pub use alaya_device::pool::{self, Scope, WorkStealingPool};
pub use engine::{ServeConfig, ServeEngine, SessionId};
pub use error::ServeError;
pub use scheduler::SchedulerStats;
pub use telemetry::{StageBreakdown, StageStats, TelemetrySnapshot};
