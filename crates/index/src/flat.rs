//! Flat index: brute-force sequential scan.
//!
//! The paper's flat index (Table 4) scans every key on the CPU. It is the
//! exact-answer reference for every other index, the optimizer's choice for
//! first-layer attention (where the number of critical tokens is huge and a
//! scan's sequential bandwidth beats a graph's random access), and the
//! ground-truth oracle used by tests and recall measurements.

use alaya_vector::topk::{top_k_indices, top_k_scored, ScoredIdx};

use crate::source::VectorSource;

/// Brute-force scan index over a [`VectorSource`].
///
/// Stateless: borrows the source per query, so it never holds a stale copy
/// of a growing KV cache.
///
/// Every search scores the whole source through one
/// [`VectorSource::score_range`] block call (the sequential-bandwidth path
/// the optimizer picks this index for), so in-memory sources run the tiled
/// multi-lane kernel instead of one dispatch per key, and builds a
/// [`ScoredIdx`] only for ids that survive selection.
#[derive(Clone, Copy, Debug, Default)]
pub struct FlatIndex;

/// `q` against every id of `source`, in id order.
fn score_all<S: VectorSource>(source: &S, q: &[f32]) -> Vec<f32> {
    let mut scores = vec![0.0f32; source.len()];
    source.score_range(q, 0, &mut scores);
    scores
}

impl FlatIndex {
    /// Exact top-`k` by inner product. Results are sorted descending. Ids
    /// scoring NaN sort last and are only returned once every finite score
    /// is exhausted.
    pub fn search_topk<S: VectorSource>(&self, source: &S, q: &[f32], k: usize) -> Vec<ScoredIdx> {
        top_k_indices(&score_all(source, q), k)
    }

    /// Exact top-`k` among ids satisfying `predicate` (attribute filtering).
    pub fn search_topk_filtered<S: VectorSource>(
        &self,
        source: &S,
        q: &[f32],
        k: usize,
        predicate: impl Fn(u32) -> bool,
    ) -> Vec<ScoredIdx> {
        let scores = score_all(source, q);
        let passing: Vec<ScoredIdx> = scores
            .iter()
            .enumerate()
            .filter(|&(idx, _)| predicate(idx as u32))
            .map(|(idx, &score)| ScoredIdx { idx, score })
            .collect();
        top_k_scored(&passing, k)
    }

    /// Exact DIPR: every id whose inner product is within `beta` of the
    /// maximum (Definition 3). Results sorted descending by score.
    ///
    /// Returns an empty vector for an empty source.
    pub fn search_dipr<S: VectorSource>(&self, source: &S, q: &[f32], beta: f32) -> Vec<ScoredIdx> {
        self.search_dipr_filtered(source, q, beta, |_| true)
    }

    /// Exact DIPR restricted to ids satisfying `predicate`.
    ///
    /// NaN scores can never enter the band (`NaN ≥ max − beta` is false) and
    /// NaN never becomes the band maximum (`f32::max` skips it), so a
    /// poisoned key degrades to "not critical" instead of corrupting the
    /// result set.
    pub fn search_dipr_filtered<S: VectorSource>(
        &self,
        source: &S,
        q: &[f32],
        beta: f32,
        predicate: impl Fn(u32) -> bool,
    ) -> Vec<ScoredIdx> {
        let scores = score_all(source, q);
        let max = scores
            .iter()
            .enumerate()
            .filter(|&(idx, _)| predicate(idx as u32))
            .map(|(_, &score)| score)
            .fold(f32::NEG_INFINITY, f32::max);
        let mut band: Vec<ScoredIdx> = scores
            .iter()
            .enumerate()
            .filter(|&(idx, &score)| score >= max - beta && predicate(idx as u32))
            .map(|(idx, &score)| ScoredIdx { idx, score })
            .collect();
        band.sort_unstable_by(|a, b| b.cmp(a));
        band
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alaya_vector::VecStore;

    fn store() -> VecStore {
        // ids 0..5 with increasing first coordinate.
        VecStore::from_flat(2, vec![0.0, 1.0, 1.0, 1.0, 2.0, 1.0, 3.0, 1.0, 4.0, 1.0])
    }

    #[test]
    fn topk_orders_by_inner_product() {
        let s = store();
        let got = FlatIndex.search_topk(&s, &[1.0, 0.0], 3);
        let ids: Vec<usize> = got.iter().map(|x| x.idx).collect();
        assert_eq!(ids, vec![4, 3, 2]);
    }

    #[test]
    fn dipr_returns_beta_band() {
        let s = store();
        // Scores with q=[1,0] are 0,1,2,3,4; beta=1.5 keeps {4,3}.
        let got = FlatIndex.search_dipr(&s, &[1.0, 0.0], 1.5);
        let ids: Vec<usize> = got.iter().map(|x| x.idx).collect();
        assert_eq!(ids, vec![4, 3]);
        // beta=0 keeps only the max.
        let got = FlatIndex.search_dipr(&s, &[1.0, 0.0], 0.0);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].idx, 4);
    }

    #[test]
    fn dipr_band_is_dynamic_with_distribution() {
        // A flat score distribution yields many critical tokens; a peaked
        // one yields few — the dynamism DIPR exists for (§6.1).
        let flat = VecStore::from_flat(1, vec![1.0, 1.0, 1.0, 1.0]);
        let peaked = VecStore::from_flat(1, vec![10.0, 1.0, 1.0, 1.0]);
        let b = 2.0;
        assert_eq!(FlatIndex.search_dipr(&flat, &[1.0], b).len(), 4);
        assert_eq!(FlatIndex.search_dipr(&peaked, &[1.0], b).len(), 1);
    }

    #[test]
    fn filtered_variants_respect_predicate() {
        let s = store();
        let got = FlatIndex.search_topk_filtered(&s, &[1.0, 0.0], 2, |id| id < 3);
        let ids: Vec<usize> = got.iter().map(|x| x.idx).collect();
        assert_eq!(ids, vec![2, 1]);

        let got = FlatIndex.search_dipr_filtered(&s, &[1.0, 0.0], 1.5, |id| id < 3);
        let ids: Vec<usize> = got.iter().map(|x| x.idx).collect();
        // Max among ids<3 is 2.0 → band keeps {2, 1}.
        assert_eq!(ids, vec![2, 1]);
    }

    /// The per-id formulation the block-scored searches replaced: score each
    /// predicate-passing id on its own, materialize all of them, select.
    fn per_id(
        s: &VecStore,
        q: &[f32],
        predicate: impl Fn(u32) -> bool,
        select: impl Fn(&mut Vec<ScoredIdx>),
    ) -> Vec<(usize, u32)> {
        let mut scored: Vec<ScoredIdx> = (0..VectorSource::len(s) as u32)
            .filter(|&i| predicate(i))
            .map(|i| ScoredIdx {
                idx: i as usize,
                score: s.score(q, i),
            })
            .collect();
        select(&mut scored);
        scored.sort_unstable_by(|a, b| b.cmp(a));
        key(&scored)
    }

    fn key(scored: &[ScoredIdx]) -> Vec<(usize, u32)> {
        scored.iter().map(|s| (s.idx, s.score.to_bits())).collect()
    }

    #[test]
    fn filtered_searches_equal_the_per_id_formulation_exactly() {
        use alaya_vector::rng::{gaussian_store, gaussian_vec, seeded};
        let mut rng = seeded(91);
        let mut poisoned = gaussian_store(&mut rng, 70, 12, 1.0);
        poisoned.row_mut(17).fill(f32::NAN);
        let sources = [
            gaussian_store(&mut rng, 67, 12, 1.0),
            poisoned,
            VecStore::new(12),
        ];
        let q = gaussian_vec(&mut rng, 12, 1.0);
        // No filter, a prefix filter (`alaya_query::PrefixFilter::accepts`),
        // an all-rejecting predicate, a scattered one.
        let predicates: [&dyn Fn(u32) -> bool; 4] =
            [&|_| true, &|id| (id as usize) < 40, &|_| false, &|id| {
                id % 3 == 1
            }];
        for s in &sources {
            for pred in predicates {
                for beta in [0.0f32, 0.5, 2.0, 1e9] {
                    let want = per_id(s, &q, pred, |scored| {
                        let max = scored
                            .iter()
                            .map(|s| s.score)
                            .fold(f32::NEG_INFINITY, f32::max);
                        scored.retain(|s| s.score >= max - beta);
                    });
                    let got = FlatIndex.search_dipr_filtered(s, &q, beta, pred);
                    assert_eq!(key(&got), want, "dipr beta={beta}");
                }
                for k in [0usize, 1, 5, 1000] {
                    let mut want = per_id(s, &q, pred, |_| {});
                    want.truncate(k);
                    let got = FlatIndex.search_topk_filtered(s, &q, k, pred);
                    assert_eq!(key(&got), want, "topk k={k}");
                }
            }
        }
    }

    #[test]
    fn empty_source() {
        let s = VecStore::new(2);
        assert!(FlatIndex.search_topk(&s, &[1.0, 0.0], 3).is_empty());
        assert!(FlatIndex.search_dipr(&s, &[1.0, 0.0], 1.0).is_empty());
    }

    #[test]
    fn nan_keys_never_enter_dipr_band_and_sort_last() {
        // id 1 is NaN-poisoned; ids 0/2 score 1 and 3.
        let s = VecStore::from_flat(2, vec![1.0, 0.0, f32::NAN, f32::NAN, 3.0, 0.0]);
        let q = [1.0f32, 1.0];

        // A huge beta band still excludes the NaN key.
        let band = FlatIndex.search_dipr(&s, &q, 1e9);
        let ids: Vec<usize> = band.iter().map(|x| x.idx).collect();
        assert_eq!(ids, vec![2, 0]);

        // Top-k prefers every finite score over the NaN one.
        let top = FlatIndex.search_topk(&s, &q, 2);
        let ids: Vec<usize> = top.iter().map(|x| x.idx).collect();
        assert_eq!(ids, vec![2, 0]);
    }
}
