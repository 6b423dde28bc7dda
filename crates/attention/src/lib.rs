//! Attention execution for AlayaDB.
//!
//! One executor, [`executor::attend`], runs every optimizer plan over a
//! borrowed [`HeadView`] of one head: it selects the tokens the plan's
//! query retrieves from the plan's index, streams the cached window, the
//! session-local rows and the retrieved tokens into a single online-softmax
//! accumulator (the FlashAttention-style log-sum-exp aggregation of §7.2),
//! and returns the output. `alaya_core::Session` serves through it, and
//! every method compared in the paper's evaluation (Table 5, Figure 9) is a
//! parameterisation of it behind [`SparseAttention`] over a
//! [`HeadContext`] — so the reproduction bins measure the served code.
//!
//! Engines:
//!
//! * [`FullAttention`] — every token (the quality reference; ① coupled
//!   architecture),
//! * [`StreamingLlm`] — attention sinks: initial + last window only,
//! * [`InfLlm`] — coarse block retrieval + window (the `TopK + Coarse`
//!   optimizer plan),
//! * [`TopKRetrieval`] — graph-index top-k + window (RetrievalAttention;
//!   the `TopK + Fine` plan),
//! * [`DiprsAttention`] — the paper's DIPR query via DIPRS + window, with
//!   window-seeded pruning (the `DIPR + Fine`/`DIPR + Flat` plans).

pub mod context;
pub mod engines;
pub mod executor;
pub mod window;

pub use context::HeadContext;
pub use engines::{
    DiprsAttention, FullAttention, InfLlm, SparseAttention, StreamingLlm, TopKRetrieval,
};
pub use executor::{attend, attend_all, attend_selected, rows_read, AttendOutput, HeadView};
pub use window::WindowSpec;
