//! Dense `f32` vector and matrix primitives for AlayaDB.
//!
//! This crate is the numeric substrate shared by every other AlayaDB crate:
//!
//! * [`VecStore`] — a contiguous, row-major collection of equal-dimension
//!   vectors (the in-memory representation of a key or value matrix for one
//!   attention head),
//! * [`ops`] — inner products, axpy, normalization and related kernels,
//! * [`softmax`] — numerically-stable softmax and the streaming
//!   (FlashAttention-style) log-sum-exp accumulator used by the data-centric
//!   attention engine,
//! * [`topk`] — threshold-gated top-k selection used by flat scans and by
//!   exact kNN index construction,
//! * [`rng`] — deterministic random vector generators used by the transformer
//!   substrate, the index builders and the synthetic workloads.
//!
//! Everything here is pure CPU `f32` code with no unsafe and no external
//! BLAS; kernels are written so that LLVM auto-vectorizes them (whole-array
//! lane operations over slices; [`ops`] documents the one barrier that keeps
//! the reductions wide).

pub mod ops;
pub mod rng;
pub mod softmax;
pub mod store;
pub mod topk;

pub use ops::{argmax, axpy, dot, dot_many, dot_many_multi, l2_norm, l2_sq, normalize, scale};
pub use softmax::{exp_approx, softmax_in_place, OnlineSoftmax, SOFTMAX_REL_TOL};
pub use store::VecStore;
pub use topk::{top_k_indices, ScoredIdx};
