//! Device substrate for AlayaDB: GPU-memory accounting, the CPU pool and
//! clocks.
//!
//! The paper evaluates AlayaDB on an NVIDIA L20 GPU + dual-Xeon server.
//! This repository has no GPU, so the GPU appears only as a memory budget:
//! [`MemoryTracker`] does exact budget accounting (what the optimizer's
//! Figure 8 memory rule and the serving layer's admission control probe),
//! and [`ModelShape`] gives the paper model's per-token KV and weight bytes
//! for paper-scale memory figures. Nothing here models device *time*:
//! every latency this repository reports is measured on the CPU it runs on
//! (PAPER.md, "Evaluation shape reproduced here").
//!
//! The [`pool`] module is the CPU execution substrate: a hand-rolled
//! work-stealing thread pool with scoped execution that index construction,
//! per-head attention and the `alaya-serve` scheduler all share. The
//! [`clock`] module is the injectable time source the scheduler reads.

pub mod clock;
pub mod memory;
pub mod pool;
pub mod shape;

pub use clock::{Clock, ManualClock, SystemClock};
pub use memory::{MemoryGuard, MemoryTracker, OutOfMemory};
pub use pool::{PoolStats, WorkStealingPool};
pub use shape::ModelShape;
