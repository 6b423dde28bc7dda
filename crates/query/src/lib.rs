//! AlayaDB's query processing engine.
//!
//! Sparse attention is query processing (§6): selecting the critical tokens
//! for one attention head is a vector query against that head's key matrix.
//! This crate implements:
//!
//! * the query types of the optimizer's query-type module — traditional
//!   top-k, the paper's novel **Dynamic Inner-Product Range query**
//!   ([`types::QueryType::Dipr`], Definition 3) and attribute-filtered
//!   variants for partial context reuse,
//! * **DIPRS** ([`diprs::diprs`], Algorithm 1) — the first approximate DIPR
//!   processing algorithm, a graph search with a growing unordered candidate
//!   list, exploration below the capacity threshold `l0` and β-band pruning
//!   above it — plus the window-cache seeding of §7.1,
//! * **filtered DIPRS** ([`diprs::diprs_filtered`]) — the ACORN-style 2-hop
//!   expansion that searches only a reused prefix of a stored context
//!   without disconnecting the graph,
//! * the **rule-based query optimizer** ([`optimizer`], Figure 8) that maps
//!   each attention call to `(query type, index type, filter)`.

pub mod diprs;
pub mod optimizer;
pub mod types;

pub use diprs::{diprs, diprs_filtered, diprs_filtered_naive, DiprsParams};
pub use optimizer::{Optimizer, OptimizerConfig, Plan, QuerySpec};
pub use types::{beta_from_alpha, IndexChoice, PrefixFilter, QueryType};
