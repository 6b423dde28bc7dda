//! Simulated heterogeneous device substrate for AlayaDB.
//!
//! The paper evaluates AlayaDB on an NVIDIA L20 GPU + dual-Xeon server. This
//! repository has neither, so the GPU is *modeled*: [`DeviceSpec`] carries
//! published throughput/bandwidth constants, [`MemoryTracker`] does exact
//! budget accounting (used for every "GPU memory consumption" figure), and
//! [`CostModel`] converts workload shapes (attention FLOPs, KV-cache bytes,
//! PCIe transfers) into simulated latencies for the experiments whose shape
//! depends on GPU-side costs (TTFT, prefill). Everything that genuinely runs
//! on the CPU (index search, DIPRS, buffer manager) is measured for real
//! (PAPER.md, "Evaluation shape reproduced here"; each reproduction binary's
//! header says which of its columns are modeled).
//!
//! The [`pool`] module is the CPU execution substrate: a hand-rolled
//! work-stealing thread pool with scoped execution that index construction,
//! per-head attention and the `alaya-serve` scheduler all share.
//!
//! The [`slo`] module implements the paper's Service Level Objectives:
//! Time-To-First-Token for the prefill phase and Time-Per-Output-Token for
//! the decode phase (§2), with the 0.24 s/token human-reading-speed default
//! used in §9.

pub mod clock;
pub mod cost;
pub mod memory;
pub mod pool;
pub mod slo;
pub mod spec;

pub use clock::{Clock, ManualClock, SystemClock};
pub use cost::{CostModel, ModelShape};
pub use memory::{MemoryGuard, MemoryTracker, OutOfMemory};
pub use pool::{PoolStats, WorkStealingPool};
pub use slo::{Slo, SloReport};
pub use spec::{DeviceKind, DeviceSpec, LinkSpec};
