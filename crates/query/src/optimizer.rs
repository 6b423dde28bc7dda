//! The rule-based query optimizer (Figure 8).
//!
//! For every attention call AlayaDB picks an execution plan — query type,
//! index type and optional attribute filter — from the workload context:
//!
//! ```text
//! context length short ──────────────────────────────▶ Full Attention
//!   │ long
//!   ▼
//! partially reused? ── yes ──▶ + attribute filtering ──┐
//!   │ no                                               │
//!   ▼                                                  ▼
//! GPU memory budget high ───────────────────▶ TopK + Coarse
//!   │ low
//!   ▼
//! layer id == first ─────────────────────────▶ DIPR + Flat
//!   │ deeper
//!   ▼
//! DIPR + Fine
//! ```

use alaya_device::memory::MemoryTracker;

use crate::types::{IndexChoice, PrefixFilter, QueryType};

/// Optimizer configuration (the tunables of Figure 8's rules).
#[derive(Clone, Debug)]
pub struct OptimizerConfig {
    /// Contexts at or below this length run full attention (sparse attention
    /// saves nothing on short contexts).
    pub short_context_threshold: usize,
    /// Default β for DIPR plans.
    pub default_beta: f32,
    /// Default k for top-k plans, in tokens (the coarse path selects
    /// `k.div_ceil(block_size)` blocks).
    pub default_k: usize,
    /// How many leading layers take the flat-index path (the paper observes
    /// first-layer heads need huge candidate sets — Figure 5 — so layer 1
    /// scans instead of traversing).
    pub flat_layers: usize,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        Self {
            short_context_threshold: 4096,
            default_beta: 50.0,
            default_k: 100,
            flat_layers: 1,
        }
    }
}

/// Per-call workload description the optimizer plans against.
#[derive(Clone, Debug)]
pub struct QuerySpec {
    /// Tokens in the (stored) context being attended over.
    pub context_len: usize,
    /// `Some(prefix)` when only a prefix of the stored context is reused
    /// (partial reuse → attribute filtering, §7.1).
    pub reused_prefix: Option<usize>,
    /// Transformer layer of this attention call (0-based).
    pub layer_id: usize,
    /// Bytes the coarse plan would need resident on the GPU (block cache +
    /// summaries) — checked against the budget tracker.
    pub coarse_bytes_needed: u64,
}

/// An executable plan.
#[derive(Clone, Debug, PartialEq)]
pub enum Plan {
    /// Dense attention over every cached token.
    FullAttention {
        /// Attribute filter when only a prefix is reused.
        filter: Option<PrefixFilter>,
    },
    /// Sparse attention driven by a vector query.
    Sparse {
        /// Retrieval query.
        query: QueryType,
        /// Index to run it on.
        index: IndexChoice,
        /// Attribute filter when only a prefix is reused.
        filter: Option<PrefixFilter>,
    },
}

impl Plan {
    /// Human-readable plan description (an `EXPLAIN` for attention).
    pub fn explain(&self) -> String {
        match self {
            Plan::FullAttention { filter } => match filter {
                Some(f) => format!("FullAttention(prefix<{})", f.prefix_len),
                None => "FullAttention".to_string(),
            },
            Plan::Sparse {
                query,
                index,
                filter,
            } => {
                let q = match query {
                    QueryType::TopK { k } => format!("TopK(k={k})"),
                    QueryType::Dipr { beta } => format!("DIPR(beta={beta})"),
                };
                let i = match index {
                    IndexChoice::Coarse => "Coarse",
                    IndexChoice::Fine => "Fine",
                    IndexChoice::Flat => "Flat",
                };
                match filter {
                    Some(f) => format!("{q} on {i} where token<{}", f.prefix_len),
                    None => format!("{q} on {i}"),
                }
            }
        }
    }
}

/// The rule-based optimizer.
#[derive(Clone, Debug, Default)]
pub struct Optimizer {
    cfg: OptimizerConfig,
}

impl Optimizer {
    /// Creates an optimizer with the given rule configuration.
    pub fn new(cfg: OptimizerConfig) -> Self {
        Self { cfg }
    }

    /// The active configuration.
    pub fn config(&self) -> &OptimizerConfig {
        &self.cfg
    }

    /// Plans one attention call (Figure 8's decision tree).
    pub fn plan(&self, spec: &QuerySpec, gpu: &MemoryTracker) -> Plan {
        // Rule 1: short contexts take full attention.
        let effective_len = spec.reused_prefix.unwrap_or(spec.context_len);
        if effective_len <= self.cfg.short_context_threshold {
            return Plan::FullAttention {
                filter: spec.reused_prefix.map(|p| PrefixFilter { prefix_len: p }),
            };
        }

        // Rule 2: partial reuse adds the attribute-filtering predicate.
        let filter = spec.reused_prefix.map(|p| PrefixFilter { prefix_len: p });

        // Rule 3: with GPU budget to spare, the coarse top-k plan wins on
        // latency (InfLLM-in-AlayaDB).
        if gpu.would_fit(spec.coarse_bytes_needed) {
            return Plan::Sparse {
                query: QueryType::TopK {
                    k: self.cfg.default_k,
                },
                index: IndexChoice::Coarse,
                filter,
            };
        }

        // Rule 4: budget-constrained → DIPR; flat scan for the first
        // layer(s), graph index for the rest.
        let index = if spec.layer_id < self.cfg.flat_layers {
            IndexChoice::Flat
        } else {
            IndexChoice::Fine
        };
        Plan::Sparse {
            query: QueryType::Dipr {
                beta: self.cfg.default_beta,
            },
            index,
            filter,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(context_len: usize, layer: usize) -> QuerySpec {
        QuerySpec {
            context_len,
            reused_prefix: None,
            layer_id: layer,
            coarse_bytes_needed: 1 << 30, // 1 GiB
        }
    }

    #[test]
    fn short_context_takes_full_attention() {
        let opt = Optimizer::default();
        let gpu = MemoryTracker::new(48 << 30);
        let plan = opt.plan(&spec(1000, 0), &gpu);
        assert_eq!(plan, Plan::FullAttention { filter: None });
    }

    #[test]
    fn rich_gpu_budget_takes_coarse_topk() {
        let opt = Optimizer::default();
        let gpu = MemoryTracker::new(48 << 30);
        let plan = opt.plan(&spec(100_000, 5), &gpu);
        match plan {
            Plan::Sparse {
                query: QueryType::TopK { .. },
                index: IndexChoice::Coarse,
                filter,
            } => {
                assert!(filter.is_none())
            }
            other => panic!("expected coarse top-k, got {other:?}"),
        }
    }

    #[test]
    fn tight_budget_takes_dipr_with_layer_rule() {
        let opt = Optimizer::default();
        let gpu = MemoryTracker::new(1 << 20); // 1 MiB: nothing fits
        let first = opt.plan(&spec(100_000, 0), &gpu);
        match first {
            Plan::Sparse {
                query: QueryType::Dipr { .. },
                index: IndexChoice::Flat,
                ..
            } => {}
            other => panic!("layer 0 should be DIPR+Flat, got {other:?}"),
        }
        let deep = opt.plan(&spec(100_000, 17), &gpu);
        match deep {
            Plan::Sparse {
                query: QueryType::Dipr { .. },
                index: IndexChoice::Fine,
                ..
            } => {}
            other => panic!("deep layer should be DIPR+Fine, got {other:?}"),
        }
    }

    #[test]
    fn partial_reuse_adds_filter() {
        let opt = Optimizer::default();
        let gpu = MemoryTracker::new(1 << 20);
        let mut s = spec(100_000, 3);
        s.reused_prefix = Some(40_000);
        let plan = opt.plan(&s, &gpu);
        match plan {
            Plan::Sparse {
                filter: Some(f), ..
            } => assert_eq!(f.prefix_len, 40_000),
            other => panic!("expected filtered plan, got {other:?}"),
        }
    }

    #[test]
    fn short_reused_prefix_takes_full_attention() {
        // A tiny reused prefix is a short effective context.
        let opt = Optimizer::default();
        let gpu = MemoryTracker::new(48 << 30);
        let mut s = spec(100_000, 3);
        s.reused_prefix = Some(512);
        let plan = opt.plan(&s, &gpu);
        match plan {
            Plan::FullAttention { filter: Some(f) } => assert_eq!(f.prefix_len, 512),
            other => panic!("expected filtered full attention, got {other:?}"),
        }
    }

    #[test]
    fn budget_consumption_flips_the_plan() {
        // Same spec, but once reservations eat the budget the optimizer
        // must fall back from coarse to DIPR.
        let opt = Optimizer::default();
        let gpu = MemoryTracker::new(2 << 30);
        let s = spec(100_000, 4);
        assert!(matches!(
            opt.plan(&s, &gpu),
            Plan::Sparse {
                index: IndexChoice::Coarse,
                ..
            }
        ));
        let _hold = gpu.alloc((2 << 30) - (1 << 20)).unwrap();
        assert!(matches!(
            opt.plan(&s, &gpu),
            Plan::Sparse {
                index: IndexChoice::Fine,
                ..
            }
        ));
    }

    #[test]
    fn explain_strings() {
        let p = Plan::Sparse {
            query: QueryType::Dipr { beta: 50.0 },
            index: IndexChoice::Fine,
            filter: Some(PrefixFilter { prefix_len: 7 }),
        };
        assert_eq!(p.explain(), "DIPR(beta=50) on Fine where token<7");
        assert_eq!(
            Plan::FullAttention { filter: None }.explain(),
            "FullAttention"
        );
    }
}
