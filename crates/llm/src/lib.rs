//! Decoder-only transformer substrate for AlayaDB.
//!
//! The paper integrates AlayaDB with HuggingFace transformers by swapping
//! `DynamicCache` for an AlayaDB `Session` (Figure 4). To reproduce that
//! integration without Python or GPUs, this crate implements a from-scratch
//! decoder-only transformer in pure Rust `f32`:
//!
//! * [`ModelConfig`] — structural hyperparameters (layers, GQA heads, RoPE),
//! * [`Tokenizer`] — a byte-level tokenizer with BOS/EOS specials,
//! * [`Model`] — embeddings, RMSNorm, GQA self-attention, SwiGLU MLP, tied
//!   LM head, with deterministic seeded weights. One layer loop carries a
//!   chunk of up to [`PREFILL_CHUNK`] tokens through each layer before the
//!   next: a prefill walks the prompt in such chunks, so every weight
//!   matrix is read once per chunk rather than once per token, and a
//!   decode step is the one-token chunk,
//! * [`AttentionBackend`] — the seam the paper drew between the inference
//!   engine and the attention/KV-cache service. [`FullKvBackend`] is the
//!   "coupled architecture" reference (exact full attention over an
//!   in-process KV cache); `alaya-core`'s `Session` implements the same trait
//!   to route attention through the database instead.
//!
//! Weights are random (seeded): every mechanism the paper evaluates — KV
//! cache management, GQA sharing, prefill/decode phases, attention routing —
//! depends on the model's *structure*, not on trained weights, and random
//! weights keep the substrate fully deterministic and self-contained.

pub mod backend;
pub mod config;
pub mod kv;
pub mod model;
pub mod rope;
pub mod tokenizer;
pub mod weights;

pub use backend::{AttentionBackend, FullKvBackend, StepInput};
pub use config::ModelConfig;
pub use kv::{HeadKv, KvCache};
pub use model::{Model, PREFILL_CHUNK};
pub use rope::Rope;
pub use tokenizer::Tokenizer;
