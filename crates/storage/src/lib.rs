//! AlayaDB's vector storage engine (§7.3).
//!
//! Storing every context's KV cache in DRAM is impractical at long-context
//! scale, so AlayaDB persists vectors in a purpose-built **vector file
//! system** and serves queries through a **buffer manager** tuned for
//! attention workloads:
//!
//! * [`device`] — the block-device abstraction. The paper builds on SPDK for
//!   kernel-bypass NVMe; this repo substitutes positional file I/O
//!   ([`device::FileDevice`]) and an in-memory device for tests
//!   ([`device::MemDevice`]) — the layout and buffer-management claims are
//!   preserved, kernel bypass is a constant-factor substitution.
//! * [`mod@file`] — the vector file: one file per attention head per layer.
//!   Vector data and the graph index live in *different block types*; index
//!   blocks are chained so the graph can be traversed block-by-block, and
//!   blocks are recycled through a free list so inserts/deletes never
//!   restructure the file.
//! * [`buffer`] — the buffer manager: a pin-counted page cache whose
//!   eviction is **block-type aware** (index blocks are frequently
//!   re-traversed and outrank data blocks, which are typically read once per
//!   attention call), with per-frame locks for parallel access.
//! * [`vsource`] — a [`alaya_index::VectorSource`] implementation that reads
//!   vectors through the buffer pool, letting DIPRS run unmodified over
//!   disk-resident KV caches.

pub mod buffer;
pub mod device;
#[cfg(feature = "instrumented")]
pub mod failpoint;
pub mod file;
pub mod vsource;

pub use buffer::{BlockKind, BufferManager, BufferStats, PageGuard};
pub use device::{BlockDevice, FileDevice, MemDevice};
#[cfg(feature = "instrumented")]
pub use failpoint::ChaosDevice;
pub use file::VectorFile;
pub use vsource::BufferedVectorSource;

/// Default block size (bytes). Matches a common NVMe LBA multiple; small
/// enough that a head's graph adjacency spans many blocks (exercising the
/// chained-index layout) and large enough to pack dozens of head-dim-128
/// vectors per block.
pub const DEFAULT_BLOCK_SIZE: usize = 4096;

/// Errors surfaced by the storage engine.
#[derive(Debug)]
pub enum StorageError {
    /// Underlying device I/O failed.
    Io(std::io::Error),
    /// All frames are pinned; the pool cannot evict.
    BufferFull,
    /// Structural corruption detected (bad magic, bad chain, bad id).
    Corrupt(String),
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "storage I/O error: {e}"),
            StorageError::BufferFull => write!(f, "buffer pool exhausted (all frames pinned)"),
            StorageError::Corrupt(msg) => write!(f, "storage corruption: {msg}"),
        }
    }
}

impl std::error::Error for StorageError {}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e)
    }
}

/// Storage-engine result type.
pub type Result<T> = std::result::Result<T, StorageError>;
