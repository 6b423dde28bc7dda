//! Database configuration.

use std::sync::Arc;

use alaya_attention::WindowSpec;
use alaya_device::memory::MemoryTracker;
use alaya_index::coarse::BlockScoring;
use alaya_index::roargraph::RoarGraphParams;
use alaya_llm::ModelConfig;
use alaya_query::optimizer::OptimizerConfig;

/// Configuration of one AlayaDB instance.
#[derive(Clone)]
pub struct DbConfig {
    /// Geometry of the model being served (layer/head structure; weights
    /// are irrelevant to the database).
    pub model: ModelConfig,
    /// Rule configuration of the query optimizer (Figure 8).
    pub optimizer: OptimizerConfig,
    /// Cached-window shape for sparse plans.
    pub window: WindowSpec,
    /// GPU memory budget tracker the optimizer probes.
    pub gpu: Arc<MemoryTracker>,
    /// Fine-index construction parameters.
    pub index_params: RoarGraphParams,
    /// Fraction of keys used as training queries for index construction
    /// (§9.2.1 uses 40%). It sizes the merged training set of a KV head's
    /// graph, drawn evenly across the group's query heads:
    /// `ceil(ceil(ratio * n) / group)` rows from each. A layer trained from
    /// query samples gets the full fraction. A key-trained layer (every
    /// `Db::import`, see [`StoredContext::build`]) has one key sample per
    /// KV head, so it trains on one head's share alone: 205 distinct keys
    /// of 2048 at ratio 0.4 and group 4, i.e. 10 %, not 40 %.
    ///
    /// [`StoredContext::build`]: crate::stored::StoredContext::build
    pub sample_ratio: f64,
    /// Coarse-index block size in tokens.
    pub coarse_block_size: usize,
    /// Coarse-index block scoring scheme.
    pub coarse_scoring: BlockScoring,
    /// Cap on retained query samples per (layer, query head) used to train
    /// indexes at `store()` time.
    pub max_query_samples: usize,
    /// Bytes of stored contexts ([`StoredContext::bytes`](crate::StoredContext::bytes):
    /// KV + graphs + coarse summaries + tokens) the DB keeps resident.
    /// Publishing past it evicts least-recently-reused contexts; a single
    /// context larger than the budget is kept alone. A deployment setting:
    /// the host memory granted to reusable contexts.
    pub context_budget_bytes: u64,
}

impl DbConfig {
    /// A configuration suitable for the in-repo test model: tiny geometry,
    /// permissive thresholds so sparse paths activate on small contexts.
    pub fn for_tests(model: ModelConfig) -> Self {
        Self {
            model,
            optimizer: OptimizerConfig {
                short_context_threshold: 32,
                default_beta: 4.0,
                default_k: 8,
                flat_layers: 1,
            },
            window: WindowSpec::new(8, 16),
            gpu: MemoryTracker::new(u64::MAX),
            index_params: RoarGraphParams::default(),
            sample_ratio: 0.4,
            coarse_block_size: 16,
            coarse_scoring: BlockScoring::MinMaxBounds,
            max_query_samples: 4096,
            // Two orders of magnitude above any test context, small enough
            // that a store/reuse loop reaches it within seconds.
            context_budget_bytes: 32 << 20,
        }
    }

    /// A paper-faithful configuration for the given model geometry:
    /// `[128+512]` window, β=50, 4096-token short-context threshold, and a
    /// 64 GiB stored-context budget: one 128K-token context of an 8B GQA
    /// model (32 layers × 8 KV heads × 128 dims) is 32 GiB of this repo's
    /// f32 KV before indexes, so one such context stays resident while the
    /// next is published.
    pub fn paper_defaults(model: ModelConfig, gpu: Arc<MemoryTracker>) -> Self {
        Self {
            model,
            optimizer: OptimizerConfig::default(),
            window: WindowSpec::paper_default(),
            gpu,
            index_params: RoarGraphParams::default(),
            sample_ratio: 0.4,
            coarse_block_size: 128,
            coarse_scoring: BlockScoring::Representatives { reps: 4 },
            max_query_samples: 4096,
            context_budget_bytes: 64 << 30,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_config_is_consistent() {
        let cfg = DbConfig::for_tests(ModelConfig::tiny());
        cfg.model.validate();
        assert!(cfg.sample_ratio > 0.0 && cfg.sample_ratio <= 1.0);
        assert!(cfg.coarse_block_size > 0);
        assert_eq!(cfg.context_budget_bytes, 32 << 20);
    }

    #[test]
    fn paper_defaults_match_evaluation_settings() {
        let gpu = MemoryTracker::new(48 << 30);
        let cfg = DbConfig::paper_defaults(ModelConfig::tiny(), gpu);
        assert_eq!(cfg.window, WindowSpec::new(128, 512));
        assert_eq!(cfg.optimizer.default_beta, 50.0);
        assert_eq!(cfg.optimizer.short_context_threshold, 4096);
        assert_eq!(cfg.context_budget_bytes, 64 << 30);
    }
}
