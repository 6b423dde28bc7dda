//! Property tests for the index structures.

use alaya_index::coarse::{BlockScoring, CoarseIndex, BOUND_LANES};
use alaya_index::flat::FlatIndex;
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

/// Keys whose block count at the drawn block size is never a multiple of
/// `BOUND_LANES`, so the bound table's last group is always padded; the
/// last block may be ragged.
fn padded_groups_strategy() -> impl Strategy<Value = (VecStore, usize)> {
    (1usize..16, 0usize..4, 1usize..BOUND_LANES, 0usize..16).prop_flat_map(
        |(block_size, groups, extra, short)| {
            let n_blocks = groups * BOUND_LANES + extra;
            let n = n_blocks * block_size - short.min(block_size - 1);
            let keys = prop::collection::vec(-5.0f32..5.0, n * 4)
                .prop_map(|flat| VecStore::from_flat(4, flat));
            (keys, Just(block_size))
        },
    )
}

/// Every block's min/max bound is at least each member's inner product
/// with `q`, and `select_blocks` ranks exactly those bounds.
fn check_minmax_bounds(keys: &VecStore, block_size: usize, q: &[f32]) {
    let idx = CoarseIndex::build(keys, block_size, BlockScoring::MinMaxBounds);
    for b in 0..idx.n_blocks() {
        let bound = idx.block_score(q, b);
        for t in idx.block_tokens(b) {
            assert!(keys.dot_row(q, t) <= bound + 1e-3);
        }
    }
    let ranked = idx.select_blocks(q, idx.n_blocks());
    assert_eq!(ranked.len(), idx.n_blocks());
    for s in ranked {
        assert_eq!(s.score.to_bits(), idx.block_score(q, s.idx).to_bits());
    }
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
        check_minmax_bounds(&keys, block_size, &q);
    }

    /// The same soundness where the bound table's last group is padded.
    #[test]
    fn minmax_bound_is_sound_with_padded_groups(
        (keys, block_size) in padded_groups_strategy(),
        q in prop::collection::vec(-5.0f32..5.0, 4),
    ) {
        let n_blocks = keys.len().div_ceil(block_size);
        prop_assert!(!n_blocks.is_multiple_of(BOUND_LANES));
        check_minmax_bounds(&keys, block_size, &q);
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
