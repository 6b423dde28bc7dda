//! Stored contexts: prompt tokens + KV cache + per-head vector indexes.
//!
//! A stored context is what `DB.import` / `DB.store` publish and what
//! `DB.create_session` reuses. Fine-grained graphs are built once per KV
//! head (GQA sharing, §7.2) from retained query samples; coarse block
//! indexes are kept per head for the optimizer's high-budget plan.

use std::borrow::Cow;

use alaya_index::coarse::CoarseIndex;
use alaya_index::graph::NeighborGraph;
use alaya_index::roargraph::RoarGraphParams;
use alaya_index::sharing::{build_shared_indexes, sample_rows, SharingConfig};
use alaya_llm::KvCache;
use alaya_vector::VecStore;

use crate::config::DbConfig;

/// Identifier of a stored context within one [`crate::Db`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ContextId(pub u64);

/// Bounded reservoir of query vectors per `(layer, q_head)`, used to train
/// RoarGraphs at materialization time. Sessions feed it from
/// `Session.update`'s query argument — the same vectors the paper's prefill
/// pass produces.
#[derive(Clone, Debug)]
pub struct QueryReservoir {
    samples: Vec<Vec<VecStore>>,
    cap: usize,
}

impl QueryReservoir {
    /// Creates an empty reservoir for the model geometry.
    pub fn new(n_layers: usize, n_q_heads: usize, head_dim: usize, cap: usize) -> Self {
        let samples = (0..n_layers)
            .map(|_| (0..n_q_heads).map(|_| VecStore::new(head_dim)).collect())
            .collect();
        Self { samples, cap }
    }

    /// Records one query vector (dropped once the reservoir is full).
    pub fn push(&mut self, layer: usize, q_head: usize, q: &[f32]) {
        let store = &mut self.samples[layer][q_head];
        if store.len() < self.cap {
            store.push(q);
        }
    }

    /// The samples of one layer (indexed by query head).
    pub fn layer(&self, layer: usize) -> &[VecStore] {
        &self.samples[layer]
    }

    /// Total retained samples (diagnostics).
    pub fn total(&self) -> usize {
        self.samples.iter().flatten().map(|s| s.len()).sum()
    }
}

/// An immutable stored context.
pub struct StoredContext {
    /// Identifier within the owning DB.
    pub id: ContextId,
    /// The context's token sequence.
    pub tokens: Vec<u32>,
    /// Full KV cache of the context.
    pub kv: KvCache,
    /// `graphs[layer][kv_head]`; `None` for layers the optimizer scans flat.
    graphs: Vec<Vec<Option<NeighborGraph>>>,
    /// `coarse[layer][kv_head]`.
    coarse: Vec<Vec<CoarseIndex>>,
    /// Graph layers trained from sampled keys instead of query samples.
    key_trained_layers: usize,
}

impl StoredContext {
    /// Builds a stored context: indexes every `(layer, kv_head)` pair.
    ///
    /// `queries` supplies decode-distribution training vectors; when absent
    /// (e.g. `DB.import` of a bare KV cache), sampled keys stand in — the
    /// graph then degrades toward a base-data kNN graph, which is the
    /// documented fallback. Such a key-trained layer trains each KV head's
    /// graph on `ceil(ceil(sample_ratio * n) / group)` distinct keys, the
    /// share of one query head of the group: 10 % of the keys at the
    /// default ratio 0.4 and a group of 4, not the full
    /// [`DbConfig::sample_ratio`].
    pub fn build(
        id: ContextId,
        tokens: Vec<u32>,
        kv: KvCache,
        queries: Option<&QueryReservoir>,
        cfg: &DbConfig,
    ) -> Self {
        let n_layers = kv.n_layers();
        let n_kv = kv.n_kv_heads();
        let group = cfg.model.gqa_group_size();
        assert!(kv.seq_len(0) > 0, "cannot store an empty context");

        let coarse = build_coarse(&kv, cfg);

        // Training queries of every layer that gets fine indexes (flat
        // layers are skipped: Figure 8's layer rule): the session-recorded
        // samples, borrowed, or sampled keys.
        let mut key_trained_layers = 0;
        let training: Vec<Option<Cow<[VecStore]>>> = (0..n_layers)
            .map(|layer| {
                if layer < cfg.optimizer.flat_layers {
                    return None;
                }
                Some(match queries {
                    Some(r) if r.layer(layer).iter().all(|s| !s.is_empty()) => {
                        Cow::Borrowed(r.layer(layer))
                    }
                    _ => {
                        // One key sample per KV head, held by the group's
                        // first query head: `build_shared_indexes` joins
                        // the group's samples, and copies of the same rows
                        // would add no edge, only stage-1 kNN work.
                        key_trained_layers += 1;
                        (0..n_kv * group)
                            .map(|qh| {
                                let keys = &kv.head(layer, qh / group).keys;
                                let rows = if qh % group == 0 {
                                    (keys.len() / 2).max(1)
                                } else {
                                    0
                                };
                                sample_rows(keys, rows)
                            })
                            .collect()
                    }
                })
            })
            .collect();

        // One graph per (layer, kv head), built as independent tasks of one
        // pool scope. With several graphs the parallelism is across them and
        // each build runs serially inside its task; a lone graph keeps the
        // configured fan-out inside its kNN passes.
        let jobs: Vec<(usize, &[VecStore], usize)> = training
            .iter()
            .enumerate()
            .filter_map(|(layer, t)| Some((layer, t.as_deref()?)))
            .flat_map(|(layer, t)| (0..n_kv).map(move |h| (layer, t, h)))
            .collect();
        let sharing = SharingConfig {
            group_size: group,
            sample_ratio: cfg.sample_ratio,
            params: RoarGraphParams {
                threads: if jobs.len() > 1 {
                    1
                } else {
                    cfg.index_params.threads
                },
                ..cfg.index_params
            },
            share: true,
        };
        let pool = alaya_device::pool::global();
        let built = pool.map_bounded(jobs.len(), cfg.index_params.threads, |j| {
            let (layer, training, h) = jobs[j];
            let keys = &kv.head(layer, h).keys;
            let group_queries = &training[h * group..(h + 1) * group];
            // One KV head in, one shared index out.
            build_shared_indexes(&[keys], group_queries, &sharing).indexes
        });
        let mut graphs: Vec<Vec<Option<NeighborGraph>>> = (0..n_layers)
            .map(|_| (0..n_kv).map(|_| None).collect())
            .collect();
        for (&(layer, _, h), index) in jobs.iter().zip(built.into_iter().flatten()) {
            graphs[layer][h] = Some(index.into_graph());
        }

        Self {
            id,
            tokens,
            kv,
            graphs,
            coarse,
            key_trained_layers,
        }
    }

    /// Context length in tokens.
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// Whether the context is empty (never true for built contexts).
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }

    /// The fine graph of `(layer, kv_head)`, if one was built.
    pub fn graph(&self, layer: usize, kv_head: usize) -> Option<&NeighborGraph> {
        self.graphs[layer][kv_head].as_ref()
    }

    /// How many of this context's graph layers were trained from sampled
    /// keys because no (or incomplete) query samples were supplied — the
    /// documented fallback of [`StoredContext::build`], whose graphs degrade
    /// toward a base-data kNN graph and lose recall on decode queries.
    pub fn key_trained_layers(&self) -> usize {
        self.key_trained_layers
    }

    /// The coarse index of `(layer, kv_head)`.
    pub fn coarse(&self, layer: usize, kv_head: usize) -> &CoarseIndex {
        &self.coarse[layer][kv_head]
    }

    /// KV bytes of the whole context (f32 storage).
    pub fn kv_bytes(&self) -> u64 {
        self.kv.bytes() as u64
    }

    /// GPU bytes the coarse plan would pin for this context: the full KV
    /// (blocks must be loadable) plus block summaries — Table 4's "large
    /// GPU memory" characteristic that the optimizer's budget rule probes.
    pub fn coarse_bytes_needed(&self) -> u64 {
        let summaries: usize = self
            .coarse
            .iter()
            .flatten()
            .map(|c| c.summary_bytes())
            .sum();
        self.kv_bytes() + summaries as u64
    }

    /// Index memory across all layers/heads (Figure 11b accounting).
    pub fn graph_bytes(&self) -> u64 {
        self.graphs
            .iter()
            .flatten()
            .filter_map(|g| g.as_ref())
            .map(|g| g.bytes() as u64)
            .sum()
    }

    /// Resident bytes of the whole context — KV, fine graphs, coarse
    /// summaries and the token sequence. This is what the DB charges
    /// against [`DbConfig::context_budget_bytes`].
    pub fn bytes(&self) -> u64 {
        let tokens = self.tokens.capacity() * std::mem::size_of::<u32>();
        self.coarse_bytes_needed() + self.graph_bytes() + tokens as u64
    }

    /// Longest common prefix between this context's tokens and `prompt`.
    pub fn common_prefix_len(&self, prompt: &[u32]) -> usize {
        self.tokens
            .iter()
            .zip(prompt)
            .take_while(|(a, b)| a == b)
            .count()
    }
}

/// Coarse indexes of every `(layer, kv_head)`: always available (the
/// high-budget plan), cheap summaries rebuilt from the keys.
fn build_coarse(kv: &KvCache, cfg: &DbConfig) -> Vec<Vec<CoarseIndex>> {
    (0..kv.n_layers())
        .map(|layer| {
            (0..kv.n_kv_heads())
                .map(|h| {
                    let keys = &kv.head(layer, h).keys;
                    CoarseIndex::build(keys, cfg.coarse_block_size, cfg.coarse_scoring)
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use alaya_index::roargraph::RoarGraph;
    use alaya_llm::ModelConfig;
    use alaya_vector::rng::{gaussian_vec, seeded};

    fn fake_kv(cfg: &ModelConfig, n_tokens: usize, seed: u64) -> KvCache {
        let mut rng = seeded(seed);
        let mut kv = KvCache::new(cfg.n_layers, cfg.n_kv_heads, cfg.head_dim);
        for _ in 0..n_tokens {
            for layer in 0..cfg.n_layers {
                let ks: Vec<Vec<f32>> = (0..cfg.n_kv_heads)
                    .map(|_| gaussian_vec(&mut rng, cfg.head_dim, 1.0))
                    .collect();
                let vs: Vec<Vec<f32>> = (0..cfg.n_kv_heads)
                    .map(|_| gaussian_vec(&mut rng, cfg.head_dim, 1.0))
                    .collect();
                kv.push_token(layer, &ks, &vs);
            }
        }
        kv
    }

    #[test]
    fn build_creates_indexes_per_layer_rule() {
        let model = ModelConfig::tiny();
        let cfg = DbConfig::for_tests(model.clone());
        let kv = fake_kv(&model, 100, 1);
        let ctx = StoredContext::build(ContextId(0), (0..100).collect(), kv, None, &cfg);

        assert_eq!(ctx.len(), 100);
        // Layer 0 is a flat layer: no graph; deeper layers have graphs.
        assert!(ctx.graph(0, 0).is_none());
        assert!(ctx.graph(1, 0).is_some());
        assert_eq!(ctx.graph(1, 0).unwrap().len(), 100);
        // Coarse indexes exist everywhere.
        assert_eq!(ctx.coarse(0, 1).n_tokens(), 100);
        assert!(ctx.graph_bytes() > 0);
        assert!(ctx.coarse_bytes_needed() > ctx.kv_bytes());
        assert!(ctx.bytes() >= ctx.coarse_bytes_needed() + ctx.graph_bytes() + 100 * 4);
    }

    #[test]
    fn common_prefix_len_cases() {
        let model = ModelConfig::tiny();
        let cfg = DbConfig::for_tests(model.clone());
        let kv = fake_kv(&model, 5, 2);
        let ctx = StoredContext::build(ContextId(1), vec![1, 2, 3, 4, 5], kv, None, &cfg);
        assert_eq!(ctx.common_prefix_len(&[1, 2, 3, 4, 5, 6]), 5);
        assert_eq!(ctx.common_prefix_len(&[1, 2, 9]), 2);
        assert_eq!(ctx.common_prefix_len(&[9]), 0);
        assert_eq!(ctx.common_prefix_len(&[]), 0);
    }

    #[test]
    fn reservoir_caps_and_counts() {
        let mut r = QueryReservoir::new(2, 4, 8, 3);
        for i in 0..10 {
            r.push(0, 1, &[i as f32; 8]);
        }
        assert_eq!(r.layer(0)[1].len(), 3);
        assert_eq!(r.total(), 3);
        r.push(1, 0, &[0.0; 8]);
        assert_eq!(r.total(), 4);
    }

    #[test]
    fn build_uses_recorded_queries_when_full() {
        let model = ModelConfig::tiny();
        let cfg = DbConfig::for_tests(model.clone());
        let kv = fake_kv(&model, 60, 3);
        let mut r = QueryReservoir::new(model.n_layers, model.n_q_heads, model.head_dim, 1024);
        let mut rng = seeded(9);
        for layer in 0..model.n_layers {
            for qh in 0..model.n_q_heads {
                for _ in 0..30 {
                    r.push(layer, qh, &gaussian_vec(&mut rng, model.head_dim, 1.0));
                }
            }
        }
        let ctx = StoredContext::build(ContextId(2), (0..60).collect(), kv, Some(&r), &cfg);
        assert!(ctx.graph(1, 0).is_some());
    }

    #[test]
    fn key_trained_graphs_equal_a_build_on_one_key_sample_per_query_head() {
        // Without query samples a KV head trains on one key sample, which
        // must give the graph that `group` copies of it, one per query head
        // of the group, give.
        let model = ModelConfig::small();
        let cfg = DbConfig::for_tests(model.clone());
        let group = model.gqa_group_size();
        assert!(group > 1);
        let n = 300;
        let kv = fake_kv(&model, n, 4);
        let ctx = StoredContext::build(ContextId(3), (0..n as u32).collect(), kv, None, &cfg);
        let flat = cfg.optimizer.flat_layers;
        assert_eq!(ctx.key_trained_layers(), model.n_layers - flat);
        let per_head = ((n as f64 * cfg.sample_ratio).ceil() as usize).div_ceil(group);
        for layer in flat..model.n_layers {
            for h in 0..model.n_kv_heads {
                let keys = &ctx.kv.head(layer, h).keys;
                let sample = sample_rows(&sample_rows(keys, n / 2), per_head);
                let mut copies = VecStore::new(keys.dim());
                for _ in 0..group {
                    copies.extend_from(&sample);
                }
                let want = RoarGraph::build(keys, &copies, cfg.index_params).into_graph();
                assert_eq!(
                    ctx.graph(layer, h),
                    Some(&want),
                    "layer {layer} kv head {h}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "empty context")]
    fn empty_context_rejected() {
        let model = ModelConfig::tiny();
        let cfg = DbConfig::for_tests(model.clone());
        let kv = KvCache::new(model.n_layers, model.n_kv_heads, model.head_dim);
        StoredContext::build(ContextId(0), vec![], kv, None, &cfg);
    }
}
