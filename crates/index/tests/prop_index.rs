//! Property tests for the index structures.

use alaya_index::coarse::{BlockScoring, CoarseIndex};
use alaya_index::flat::FlatIndex;
use alaya_index::graph::{GraphBuilder, NeighborGraph};
use alaya_index::knn::exact_knn;
use alaya_index::roargraph::{RoarGraph, RoarGraphParams};
use alaya_vector::topk::ScoredIdx;
use alaya_vector::VecStore;
use proptest::prelude::*;

fn store_strategy(max_n: usize, dim: usize) -> impl Strategy<Value = VecStore> {
    prop::collection::vec(-5.0f32..5.0, dim..=max_n * dim).prop_map(move |mut flat| {
        flat.truncate(flat.len() / dim * dim);
        VecStore::from_flat(dim, flat)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Quest-style min/max block bounds really upper-bound every member's
    /// inner product, for arbitrary data and queries.
    #[test]
    fn minmax_bound_is_sound(
        keys in store_strategy(60, 4),
        q in prop::collection::vec(-5.0f32..5.0, 4),
        block_size in 1usize..16,
    ) {
        let idx = CoarseIndex::build(&keys, block_size, BlockScoring::MinMaxBounds);
        for b in 0..idx.n_blocks() {
            let bound = idx.block_score(&q, b);
            for t in idx.block_tokens(b) {
                prop_assert!(keys.dot_row(&q, t) <= bound + 1e-3);
            }
        }
    }

    /// Selected blocks partition the context: every token belongs to
    /// exactly one block and selecting all blocks yields all tokens.
    #[test]
    fn blocks_partition_tokens(keys in store_strategy(60, 4), block_size in 1usize..16) {
        let idx = CoarseIndex::build(&keys, block_size, BlockScoring::Representatives { reps: 1 });
        let all = idx.select_tokens(keys.row(0), idx.n_blocks());
        let want: Vec<u32> = (0..keys.len() as u32).collect();
        prop_assert_eq!(all, want);
    }

    /// The data-parallel branch of `exact_knn` returns the serial
    /// reference's lists bit for bit, and a RoarGraph built through either
    /// is the same graph, for every thread count.
    #[test]
    fn knn_parallel_equals_serial(
        base in store_strategy(40, 4),
        queries in store_strategy(10, 4),
        k in 1usize..8,
        threads in 0usize..6,
    ) {
        let bits = |lists: Vec<Vec<ScoredIdx>>| -> Vec<Vec<(usize, u32)>> {
            lists
                .iter()
                .map(|l| l.iter().map(|s| (s.idx, s.score.to_bits())).collect())
                .collect()
        };
        prop_assert_eq!(
            bits(exact_knn(&base, &queries, k, 1)),
            bits(exact_knn(&base, &queries, k, threads))
        );
        let build = |threads| {
            let params = RoarGraphParams { knn_k: k, threads, ..Default::default() };
            RoarGraph::build(&base, &queries, params).into_graph()
        };
        prop_assert_eq!(build(1), build(threads));
    }

    /// Graph (de)serialization is a lossless round trip of the frozen type
    /// for arbitrary topologies, and the decoded CSR is allocated at the
    /// same (exact) size as the frozen one.
    #[test]
    fn graph_bytes_round_trip(edges in prop::collection::vec((0u32..30, 0u32..30), 0..120), entry in 0u32..30) {
        let mut g = GraphBuilder::new(30);
        for (a, b) in edges {
            g.add_edge(a, b);
        }
        g.set_entry(entry);
        let g = g.freeze();
        let back = NeighborGraph::from_bytes(&g.to_bytes());
        prop_assert_eq!(back.as_ref().map(NeighborGraph::bytes), Some(g.bytes()));
        prop_assert_eq!(back, Some(g));
    }

    /// Flat top-k with a predicate equals filtering after an unfiltered
    /// full-length search.
    #[test]
    fn filtered_topk_consistent(
        keys in store_strategy(50, 4),
        q in prop::collection::vec(-5.0f32..5.0, 4),
        k in 1usize..20,
        modulo in 1u32..5,
    ) {
        let pred = |id: u32| id.is_multiple_of(modulo);
        let filtered = FlatIndex.search_topk_filtered(&keys, &q, k, pred);
        let manual: Vec<usize> = FlatIndex
            .search_topk(&keys, &q, keys.len())
            .into_iter()
            .filter(|s| pred(s.idx as u32))
            .take(k)
            .map(|s| s.idx)
            .collect();
        let got: Vec<usize> = filtered.iter().map(|s| s.idx).collect();
        prop_assert_eq!(got, manual);
    }
}
