//! Per-head attention context: the KV matrices plus whichever indexes the
//! configured engine needs.

use alaya_index::coarse::{BlockScoring, CoarseIndex};
use alaya_index::graph::NeighborGraph;
use alaya_index::roargraph::{RoarGraph, RoarGraphParams};
use alaya_vector::VecStore;

use crate::executor::HeadView;

/// One `(layer, kv_head)` context as the attention engines see it: keys,
/// values and optional pre-built indexes.
pub struct HeadContext {
    /// Key matrix (row = token).
    pub keys: VecStore,
    /// Value matrix (row = token).
    pub values: VecStore,
    /// Fine-grained graph index (RoarGraph), if built.
    pub graph: Option<NeighborGraph>,
    /// Coarse block index, if built.
    pub coarse: Option<CoarseIndex>,
}

impl HeadContext {
    /// Wraps raw KV matrices with no indexes.
    pub fn new(keys: VecStore, values: VecStore) -> Self {
        assert_eq!(keys.len(), values.len(), "keys/values must pair 1:1");
        Self {
            keys,
            values,
            graph: None,
            coarse: None,
        }
    }

    /// Number of cached tokens.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the context holds no tokens.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Head dimensionality.
    pub fn dim(&self) -> usize {
        self.keys.dim()
    }

    /// Builds the fine-grained RoarGraph from `train_queries` (decode-side
    /// query samples; see GQA sharing in `alaya-index`).
    pub fn build_graph(&mut self, train_queries: &VecStore, params: RoarGraphParams) {
        self.graph = Some(RoarGraph::build(&self.keys, train_queries, params).into_graph());
    }

    /// Attaches an externally built graph (e.g. loaded from the vector file
    /// system or shared across a GQA group).
    pub fn set_graph(&mut self, graph: NeighborGraph) {
        assert_eq!(graph.len(), self.keys.len(), "graph must index every key");
        self.graph = Some(graph);
    }

    /// Builds the coarse block index.
    pub fn build_coarse(&mut self, block_size: usize, scoring: BlockScoring) {
        self.coarse = Some(CoarseIndex::build(&self.keys, block_size, scoring));
    }

    /// The executor's borrowed view of this context: every row stored, no
    /// session-local part.
    pub fn view(&self) -> HeadView<'_> {
        HeadView {
            graph: self.graph.as_ref(),
            coarse: self.coarse.as_ref(),
            ..HeadView::stored(&self.keys, &self.values)
        }
    }

    /// `1/√d` — the attention scale of Equation (1).
    pub fn scale(&self) -> f32 {
        1.0 / (self.dim() as f32).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alaya_vector::rng::{gaussian_store, seeded};

    #[test]
    fn construction_and_indexes() {
        let mut rng = seeded(3);
        let keys = gaussian_store(&mut rng, 100, 8, 1.0);
        let values = gaussian_store(&mut rng, 100, 8, 1.0);
        let queries = gaussian_store(&mut rng, 40, 8, 1.0);
        let mut ctx = HeadContext::new(keys, values);
        assert_eq!(ctx.len(), 100);
        assert!((ctx.scale() - 1.0 / 8f32.sqrt()).abs() < 1e-6);

        ctx.build_graph(&queries, RoarGraphParams::default());
        assert_eq!(ctx.graph.as_ref().unwrap().len(), 100);

        ctx.build_coarse(16, BlockScoring::MinMaxBounds);
        assert_eq!(ctx.coarse.as_ref().unwrap().n_blocks(), 7);
    }

    #[test]
    #[should_panic(expected = "pair 1:1")]
    fn mismatched_kv_panics() {
        let mut rng = seeded(4);
        let keys = gaussian_store(&mut rng, 5, 4, 1.0);
        let values = gaussian_store(&mut rng, 6, 4, 1.0);
        HeadContext::new(keys, values);
    }

    #[test]
    #[should_panic(expected = "index every key")]
    fn wrong_sized_graph_rejected() {
        let mut rng = seeded(5);
        let keys = gaussian_store(&mut rng, 5, 4, 1.0);
        let values = gaussian_store(&mut rng, 5, 4, 1.0);
        let mut ctx = HeadContext::new(keys, values);
        ctx.set_graph(alaya_index::graph::GraphBuilder::new(3).freeze());
    }
}
