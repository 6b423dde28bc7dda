//! GQA-based index sharing (§7.2).
//!
//! GQA models answer `h_q` query heads from `h_kv < h_q` key/value heads, so
//! every KV head serves a *group* of query heads. RetrievalAttention builds
//! one index per **query head** (each query head's distribution differs);
//! AlayaDB instead samples query vectors from every head in a group and
//! merges them into one RoarGraph per **KV head**, cutting index count,
//! build time and memory by `h_q / h_kv` (4× for Llama-3-8B) at ≤3% top-k
//! recall loss.

use std::time::Instant;

use alaya_vector::VecStore;

use crate::roargraph::{RoarGraph, RoarGraphParams};

/// Configuration for (un)shared index construction.
#[derive(Clone, Copy, Debug)]
pub struct SharingConfig {
    /// Query heads per KV head (`h_q / h_kv`).
    pub group_size: usize,
    /// Training queries as a fraction of the key count (§9.2.1 uses 40%).
    pub sample_ratio: f64,
    /// Underlying RoarGraph build parameters.
    pub params: RoarGraphParams,
    /// `true` = one shared index per KV head; `false` = one per query head
    /// (the RetrievalAttention baseline, for the Figure 11 ablation).
    pub share: bool,
}

/// Result of building the indexes for one layer.
pub struct SharedBuildResult {
    /// One index per KV head (shared) or per query head (unshared).
    pub indexes: Vec<RoarGraph>,
    /// Wall-clock build time.
    pub build_seconds: f64,
}

impl SharedBuildResult {
    /// Total graph memory across all indexes (Figure 11b).
    pub fn bytes(&self) -> usize {
        self.indexes.iter().map(|i| i.bytes()).sum()
    }
}

/// Deterministically samples `n` rows from `store` with an even stride.
pub fn sample_rows(store: &VecStore, n: usize) -> VecStore {
    let len = store.len();
    let n = n.min(len);
    let mut out = VecStore::with_capacity(store.dim(), n);
    if n == 0 {
        return out;
    }
    for i in 0..n {
        let idx = i * len / n;
        out.push(store.row(idx));
    }
    out
}

/// Builds the fine-grained indexes for one layer.
///
/// * `keys_per_kv_head[g]` — key matrix of KV head `g`,
/// * `queries_per_q_head[h]` — query-vector sample of query head `h`
///   (length `h_kv * group_size`).
pub fn build_shared_indexes(
    keys_per_kv_head: &[&VecStore],
    queries_per_q_head: &[VecStore],
    cfg: &SharingConfig,
) -> SharedBuildResult {
    assert!(cfg.group_size > 0, "group size must be positive");
    assert_eq!(
        keys_per_kv_head.len() * cfg.group_size,
        queries_per_q_head.len(),
        "query heads must equal kv heads * group size"
    );

    let t0 = Instant::now();
    let mut indexes = Vec::new();

    if cfg.share {
        // One index per KV head: merge a (sample_ratio * n_keys)-sized query
        // sample drawn evenly across the group's query heads.
        for (g, &keys) in keys_per_kv_head.iter().enumerate() {
            let total = (keys.len() as f64 * cfg.sample_ratio).ceil() as usize;
            let per_head = total.div_ceil(cfg.group_size).max(1);
            let mut merged = VecStore::new(keys.dim());
            for head_queries in &queries_per_q_head[g * cfg.group_size..(g + 1) * cfg.group_size] {
                merged.extend_from(&sample_rows(head_queries, per_head));
            }
            indexes.push(RoarGraph::build(keys, &merged, cfg.params));
        }
    } else {
        // RetrievalAttention baseline: one index per query head, trained on
        // that head's own samples.
        for (h, queries) in queries_per_q_head.iter().enumerate() {
            let keys = keys_per_kv_head[h / cfg.group_size];
            let total = (keys.len() as f64 * cfg.sample_ratio).ceil() as usize;
            let sampled = sample_rows(queries, total.max(1));
            indexes.push(RoarGraph::build(keys, &sampled, cfg.params));
        }
    }

    SharedBuildResult {
        indexes,
        build_seconds: t0.elapsed().as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::FlatIndex;
    use alaya_vector::rng::{gaussian_store, seeded};

    fn layer_data(
        n_kv: usize,
        group: usize,
        n_keys: usize,
        dim: usize,
    ) -> (Vec<VecStore>, Vec<VecStore>) {
        let mut rng = seeded(77);
        let keys: Vec<VecStore> = (0..n_kv)
            .map(|_| gaussian_store(&mut rng, n_keys, dim, 1.0))
            .collect();
        let queries: Vec<VecStore> = (0..n_kv * group)
            .map(|_| gaussian_store(&mut rng, n_keys, dim, 1.1))
            .collect();
        (keys, queries)
    }

    fn refs(keys: &[VecStore]) -> Vec<&VecStore> {
        keys.iter().collect()
    }

    #[test]
    fn shared_build_produces_one_index_per_kv_head() {
        let (keys, queries) = layer_data(2, 2, 200, 8);
        let cfg = SharingConfig {
            group_size: 2,
            sample_ratio: 0.4,
            params: RoarGraphParams::default(),
            share: true,
        };
        let res = build_shared_indexes(&refs(&keys), &queries, &cfg);
        assert_eq!(res.indexes.len(), 2);
        assert!(res.bytes() > 0);
    }

    #[test]
    fn unshared_build_produces_one_index_per_q_head() {
        let (keys, queries) = layer_data(2, 2, 150, 8);
        let cfg = SharingConfig {
            group_size: 2,
            sample_ratio: 0.4,
            params: RoarGraphParams::default(),
            share: false,
        };
        let res = build_shared_indexes(&refs(&keys), &queries, &cfg);
        assert_eq!(res.indexes.len(), 4);
    }

    #[test]
    fn sharing_reduces_memory() {
        let (keys, queries) = layer_data(2, 4, 200, 8);
        let shared = build_shared_indexes(
            &refs(&keys),
            &queries,
            &SharingConfig {
                group_size: 4,
                sample_ratio: 0.4,
                params: RoarGraphParams::default(),
                share: true,
            },
        );
        let unshared = build_shared_indexes(
            &refs(&keys),
            &queries,
            &SharingConfig {
                group_size: 4,
                sample_ratio: 0.4,
                params: RoarGraphParams::default(),
                share: false,
            },
        );
        // 2 indexes vs 8 — memory should drop by roughly the group factor.
        assert!(unshared.bytes() as f64 / shared.bytes() as f64 > 2.0);
    }

    #[test]
    fn shared_index_recall_stays_high_for_all_group_heads() {
        // The shared graph must serve queries from every head in the group.
        let (keys, queries) = layer_data(1, 2, 400, 12);
        let cfg = SharingConfig {
            group_size: 2,
            sample_ratio: 0.5,
            params: RoarGraphParams::default(),
            share: true,
        };
        let res = build_shared_indexes(&refs(&keys), &queries, &cfg);
        let idx = &res.indexes[0];
        for (h, head_queries) in queries.iter().enumerate() {
            let mut hits = 0;
            let mut total = 0;
            for qi in (0..head_queries.len()).step_by(40) {
                let q = head_queries.row(qi);
                let got = idx.graph().search_topk(&keys[0], q, 10, 80);
                let want = FlatIndex.search_topk(&keys[0], q, 10);
                let want_ids: std::collections::HashSet<usize> =
                    want.iter().map(|s| s.idx).collect();
                hits += got.iter().filter(|s| want_ids.contains(&s.idx)).count();
                total += want.len();
            }
            let recall = hits as f64 / total as f64;
            assert!(recall > 0.8, "head {h} recall {recall}");
        }
    }

    #[test]
    fn sample_rows_even_coverage() {
        let store = VecStore::from_flat(1, (0..10).map(|i| i as f32).collect());
        let s = sample_rows(&store, 5);
        assert_eq!(s.len(), 5);
        assert_eq!(s.row(0), &[0.0]);
        assert_eq!(s.row(4), &[8.0]);
        // Oversampling clamps to the store length.
        assert_eq!(sample_rows(&store, 100).len(), 10);
        assert_eq!(sample_rows(&store, 0).len(), 0);
    }

    #[test]
    #[should_panic(expected = "query heads must equal")]
    fn mismatched_heads_panic() {
        let (keys, queries) = layer_data(2, 2, 50, 4);
        build_shared_indexes(
            &refs(&keys),
            &queries[..3],
            &SharingConfig {
                group_size: 2,
                sample_ratio: 0.4,
                params: RoarGraphParams::default(),
                share: true,
            },
        );
    }
}
