//! Vector indexes for AlayaDB's query processing engine.
//!
//! The paper's query optimizer chooses between three index families
//! (Table 4):
//!
//! * **Flat** ([`FlatIndex`]) — a sequential scan over all keys. Slow for
//!   small result sets, competitive for large ones thanks to sequential
//!   memory access; the optimizer uses it for the first transformer layer,
//!   where heads need huge numbers of critical tokens (Figure 5).
//! * **Fine-grained** ([`RoarGraph`]) — a graph index over individual key
//!   vectors, searched on the CPU: the paper's default (state of the art
//!   for the out-of-distribution query/key geometry RoPE induces). It
//!   produces a [`NeighborGraph`] that the DIPRS algorithm (in
//!   `alaya-query`) traverses.
//! * **Coarse-grained** ([`CoarseIndex`]) — blocks of adjacent tokens scored
//!   by representative vectors (InfLLM-style) or per-dimension bounds
//!   (Quest-style). Needs GPU-sized memory but answers in microseconds.
//!
//! Construction-side optimizations from §7.2 live here too: the parallel
//! ("GPU") exact-kNN builder ([`knn`]) and GQA-based index sharing
//! ([`sharing`]).

pub mod coarse;
pub mod flat;
pub mod graph;
pub mod knn;
pub mod roargraph;
pub mod sharing;

pub use coarse::{BlockScoring, CoarseIndex};
pub use flat::FlatIndex;
pub use graph::NeighborGraph;
pub use knn::exact_knn;
pub use roargraph::{RoarGraph, RoarGraphParams};
pub use sharing::{build_shared_indexes, SharingConfig};
