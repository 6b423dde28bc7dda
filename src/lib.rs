//! AlayaDB umbrella crate: re-exports every AlayaDB component under one
//! name so applications depend on a single crate.
//!
//! * [`core`] — the `DB` / `Session` public API,
//! * [`llm`] — the transformer substrate and `AttentionBackend` seam,
//! * [`attention`] — the attention executor and the evaluation engines over it,
//! * [`serve`] — concurrent multi-session serving: scheduler, admission,
//!   overload control,
//! * [`query`] — query types, DIPRS, and the optimizer,
//! * [`index`] — flat / graph / coarse vector indexes,
//! * [`device`] — GPU-memory accounting, the work-stealing pool, clocks,
//! * [`telemetry`] — lock-free metric cells: counters, gauges, histograms,
//! * [`workloads`] — synthetic evaluation workloads,
//! * [`vector`] — numeric primitives.

pub use alaya_attention as attention;
pub use alaya_core as core;
pub use alaya_device as device;
pub use alaya_index as index;
pub use alaya_llm as llm;
pub use alaya_query as query;
pub use alaya_serve as serve;
pub use alaya_telemetry as telemetry;
pub use alaya_vector as vector;
pub use alaya_workloads as workloads;
