//! Exact k-nearest-neighbor (maximum inner product) construction.
//!
//! Stage (i) of RoarGraph construction — the q→k kNN graph — is the dominant
//! build cost the paper attacks in §7.2. The paper offloads it to the GPU
//! via NVIDIA cuVS and overlaps transfers with compute. Without a GPU, the
//! same *structural* optimization is reproduced with data-parallel execution
//! across CPU cores ([`exact_knn`] fans queries out over the shared
//! [`alaya_device::pool`] work-stealing pool, so index builds and the serving
//! scheduler never oversubscribe the machine): the speedup curve of Figure
//! 11a comes from the serial/parallel ratio, and the per-layer pipelining is
//! modeled by the harness.

use alaya_vector::topk::{top_k_indices, ScoredIdx};
use alaya_vector::VecStore;

/// Exact top-`k` base ids (by inner product) for every query.
///
/// `threads` caps the concurrent shards on the shared work-stealing pool
/// (`0` = let the pool decide), bounding how much of the pool an index
/// build may occupy next to serving. `1` is the serial reference (the
/// paper's "CPU" baseline in Figure 11a) the data-parallel branch (the
/// "GPU-based kNN construction" substitution of §7.2) is tested against:
/// results are bitwise identical for any value.
///
/// Each query scores the whole base through one blocked
/// [`VecStore::dot_rows`] call (bitwise identical to per-row `dot`, see
/// `alaya_vector::ops::dot_many`); the serial branch reuses one score
/// buffer across queries.
pub fn exact_knn(
    base: &VecStore,
    queries: &VecStore,
    k: usize,
    threads: usize,
) -> Vec<Vec<ScoredIdx>> {
    assert_eq!(base.dim(), queries.dim(), "dimensionality mismatch");
    if threads == 1 {
        let mut scores = vec![0.0f32; base.len()];
        return (0..queries.len())
            .map(|qi| {
                base.dot_rows(queries.row(qi), &mut scores);
                top_k_indices(scores.iter().copied(), k)
            })
            .collect();
    }
    alaya_device::pool::global().map_bounded(queries.len(), threads, |qi| {
        let mut scores = vec![0.0f32; base.len()];
        base.dot_rows(queries.row(qi), &mut scores);
        top_k_indices(scores, k)
    })
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
