//! AlayaDB — the public API.
//!
//! This crate assembles the substrates into the system of Figure 3: the
//! **user interface** ([`Db`], [`Session`] — Table 2's abstractions), the
//! **query processing engine** (plans from `alaya-query`'s optimizer,
//! executed by `alaya-attention`'s engines) and the in-memory store of
//! contexts. The paper's third part, a vector storage engine for the tier
//! below GPU HBM, has no counterpart: a CPU-only process has no such
//! boundary, so stored contexts live in host memory alone.
//!
//! The integration contract mirrors Figure 4: an inference engine replaces
//! its in-process KV cache (`DynamicCache` / [`alaya_llm::FullKvBackend`])
//! with a [`Session`], which implements [`alaya_llm::AttentionBackend`] —
//! `Session.update` absorbs each step's K/V (and query samples for index
//! training), `Session.attention` plans and executes sparse attention per
//! query head, and only attention *outputs* ever flow back to the engine.
//!
//! Context reuse follows §5/§7.1: [`Db::create_session`] matches the
//! longest common token prefix against stored contexts (truncating the
//! prompt the engine still has to prefill); a *partial* prefix match keeps
//! the stored index usable through attribute-filtered DIPRS. Decode-phase
//! KV stays in the session-local window and is only materialized into a
//! stored, indexed context on [`Db::store`] (late materialization, §7.2).
//!
//! Stored contexts are a bounded cache ([`db`] has the rules): publishing
//! a context removes the resident ones whose tokens it extends — they
//! could never be matched again — and evicts the least recently reused
//! until the table fits [`DbConfig::context_budget_bytes`]. A
//! [`ContextId`] names a cache entry: [`Db::context`] answers `None` once
//! it is superseded or evicted, and open sessions keep serving from the
//! `Arc` they hold.

pub mod config;
pub mod db;
pub mod session;
pub mod stored;

pub use config::DbConfig;
pub use db::{Db, DbStats};
pub use session::Session;
pub use stored::{ContextId, StoredContext};
