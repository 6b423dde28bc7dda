//! Exact k-nearest-neighbor (maximum inner product) construction.
//!
//! Both stages of RoarGraph construction are this pass — the q→k kNN graph
//! of stage 1 and the k→k neighbor lists of stage 2 — and it is the
//! dominant build cost the paper attacks in §7.2. The paper offloads it to
//! the GPU via NVIDIA cuVS and overlaps transfers with compute. Without a
//! GPU, the same *structural* optimization is reproduced with data-parallel
//! execution across CPU cores ([`exact_knn`] fans query tiles out over the
//! shared [`alaya_device::pool`] work-stealing pool, so index builds and the
//! serving scheduler never oversubscribe the machine): the speedup curve of
//! Figure 11a comes from the serial/parallel ratio, and the per-layer
//! pipelining is modeled by the harness.
//!
//! # Tiling and selection
//!
//! The pass is `n_queries × n_base` inner products followed by one top-`k`
//! per query, and runs at the speed of those two kernels:
//!
//! * **Scoring** takes `QUERY_TILE` queries per pass over the keys
//!   ([`VecStore::dot_rows_multi`]): each key row is loaded once and scored
//!   against the whole tile, so a key matrix larger than L1 is streamed once
//!   per tile instead of once per query, into one `tile × n_base` score
//!   buffer per tile rather than a fresh buffer per query. Every score is
//!   bitwise the per-pair `dot`.
//! * **Selection** is [`top_k_indices`]' threshold gate: one `f32` compare
//!   per score, the [`ScoredIdx`] order only for the few survivors.
//!
//! `kernels` bench, group `knn`, 2-core AVX-512 VM, d = 32, pooled (before →
//! after this form; before: per-query `dot_rows` into a fresh buffer plus a
//! bounded heap): 384² pairs 8–16 → 3–5 ns per pair, 2048² 5.5–8 → 2–3. Most
//! of it is selection (11 → 1.2 ns per score at 384 keys); the query tile is
//! worth 6–8 % of the scoring over per-query `dot_rows`.

use alaya_vector::topk::{top_k_indices, ScoredIdx};
use alaya_vector::VecStore;

/// Queries scored per pass over the keys: the row tile of the block kernels.
const QUERY_TILE: usize = 4;

/// Exact top-`k` base ids (by inner product) for every query.
///
/// `threads` caps the concurrent shards on the shared work-stealing pool
/// (`0` = let the pool decide), bounding how much of the pool an index
/// build may occupy next to serving. `1` is the serial reference (the
/// paper's "CPU" baseline in Figure 11a) the data-parallel branch (the
/// "GPU-based kNN construction" substitution of §7.2) is tested against:
/// results are bitwise identical for any value, and for any split of the
/// queries into tiles.
pub fn exact_knn(
    base: &VecStore,
    queries: &VecStore,
    k: usize,
    threads: usize,
) -> Vec<Vec<ScoredIdx>> {
    assert_eq!(base.dim(), queries.dim(), "dimensionality mismatch");
    let (n, dim) = (base.len(), base.dim());
    if n == 0 {
        return vec![Vec::new(); queries.len()];
    }
    let tiles = queries.len().div_ceil(QUERY_TILE);
    let per_tile = alaya_device::pool::global().map_bounded(tiles, threads, |t| {
        let rows = t * QUERY_TILE..((t + 1) * QUERY_TILE).min(queries.len());
        let mut scores = vec![0.0f32; rows.len() * n];
        base.dot_rows_multi(
            &queries.as_flat()[rows.start * dim..rows.end * dim],
            &mut scores,
        );
        scores
            .chunks_exact(n)
            .map(|per_query| top_k_indices(per_query, k))
            .collect::<Vec<_>>()
    });
    per_tile.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use alaya_vector::rng::{gaussian_store, seeded};

    #[test]
    fn serial_knn_is_exact() {
        let base = VecStore::from_flat(1, vec![0.0, 1.0, 2.0, 3.0]);
        let queries = VecStore::from_flat(1, vec![1.0, -1.0]);
        let res = exact_knn(&base, &queries, 2, 1);
        assert_eq!(res.len(), 2);
        let ids: Vec<usize> = res[0].iter().map(|s| s.idx).collect();
        assert_eq!(ids, vec![3, 2]); // max IP with +1
        let ids: Vec<usize> = res[1].iter().map(|s| s.idx).collect();
        assert_eq!(ids, vec![0, 1]); // max IP with -1
    }

    #[test]
    fn parallel_matches_serial() {
        let mut rng = seeded(21);
        let base = gaussian_store(&mut rng, 300, 8, 1.0);
        let queries = gaussian_store(&mut rng, 37, 8, 1.0);
        let serial = exact_knn(&base, &queries, 5, 1);
        for threads in [0, 2, 3, 8, 64] {
            assert_eq!(
                serial,
                exact_knn(&base, &queries, 5, threads),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn equals_per_pair_dot_and_full_sort_for_every_tile_remainder() {
        let mut rng = seeded(22);
        let base = gaussian_store(&mut rng, 211, 9, 1.0);
        let all_queries = gaussian_store(&mut rng, 39, 9, 1.0);
        // 36..=39 queries: every remainder of the query tile.
        for n_queries in 36..=39 {
            let queries = all_queries.prefix(n_queries);
            let want: Vec<Vec<(usize, u32)>> = queries
                .iter()
                .map(|q| {
                    let mut all: Vec<ScoredIdx> = base
                        .iter()
                        .enumerate()
                        .map(|(idx, row)| ScoredIdx {
                            idx,
                            score: alaya_vector::dot(q, row),
                        })
                        .collect();
                    all.sort_by(|a, b| b.cmp(a));
                    all.truncate(13);
                    all.iter().map(|s| (s.idx, s.score.to_bits())).collect()
                })
                .collect();
            for threads in [1, 0, 3] {
                let got: Vec<Vec<(usize, u32)>> = exact_knn(&base, &queries, 13, threads)
                    .iter()
                    .map(|l| l.iter().map(|s| (s.idx, s.score.to_bits())).collect())
                    .collect();
                assert_eq!(got, want, "n_queries={n_queries} threads={threads}");
            }
        }
    }

    #[test]
    fn empty_base_yields_empty_lists() {
        let base = VecStore::new(4);
        let queries = gaussian_store(&mut seeded(2), 5, 4, 1.0);
        assert_eq!(exact_knn(&base, &queries, 3, 0), vec![Vec::new(); 5]);
    }

    #[test]
    fn empty_queries() {
        let base = gaussian_store(&mut seeded(1), 10, 4, 1.0);
        let queries = VecStore::new(4);
        for threads in [0, 1] {
            assert!(exact_knn(&base, &queries, 16, threads).is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "dimensionality mismatch")]
    fn dim_mismatch_panics() {
        let base = VecStore::new(4);
        let queries = VecStore::new(8);
        exact_knn(&base, &queries, 1, 1);
    }
}
