//! Partial selection: top-k by score.
//!
//! Used by the flat index for brute-force top-k queries and by index
//! construction (exact kNN ground truth). Selection keeps a bounded min-heap
//! so a scan over `n` candidates costs `O(n log k)` and never materializes
//! the full sorted order.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An index paired with a score, ordered by score (then index for ties).
///
/// The `Ord` implementation treats NaN scores as smaller than everything so
/// that corrupted scores can never win a top-k slot.
#[derive(Clone, Copy, Debug)]
pub struct ScoredIdx {
    /// Candidate identifier (token id / row id).
    pub idx: usize,
    /// Score (inner product in AlayaDB's queries).
    pub score: f32,
}

impl PartialEq for ScoredIdx {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for ScoredIdx {}

impl PartialOrd for ScoredIdx {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ScoredIdx {
    fn cmp(&self, other: &Self) -> Ordering {
        // Total order: by score (NaN lowest), ties broken by ascending idx so
        // results are deterministic across runs.
        match (self.score.is_nan(), other.score.is_nan()) {
            (true, true) => other.idx.cmp(&self.idx),
            (true, false) => Ordering::Less,
            (false, true) => Ordering::Greater,
            (false, false) => self
                .score
                .partial_cmp(&other.score)
                .unwrap()
                .then_with(|| other.idx.cmp(&self.idx)),
        }
    }
}

/// Returns the indices of the `k` highest-scoring items, best first.
///
/// `scores` is consumed lazily via the iterator; `k == 0` returns an empty
/// vector, and fewer than `k` inputs return everything sorted.
pub fn top_k_indices<I>(scores: I, k: usize) -> Vec<ScoredIdx>
where
    I: IntoIterator<Item = f32>,
{
    let items = scores.into_iter().enumerate();
    top_k_scored(items.map(|(idx, score)| ScoredIdx { idx, score }), k)
}

/// The `k` greatest of `items` under [`ScoredIdx`]'s total order, best
/// first — [`top_k_indices`] for candidates that carry their own ids (a
/// filtered scan). Equal to sorting everything descending and truncating to
/// `k`, without materializing the full order.
pub fn top_k_scored<I>(items: I, k: usize) -> Vec<ScoredIdx>
where
    I: IntoIterator<Item = ScoredIdx>,
{
    if k == 0 {
        return Vec::new();
    }
    // Min-heap of the best k seen so far: `Reverse` semantics via negated
    // comparison would obscure the code, so store wrapped and peek the worst.
    let mut heap: BinaryHeap<std::cmp::Reverse<ScoredIdx>> = BinaryHeap::with_capacity(k + 1);
    for item in items {
        if heap.len() < k {
            heap.push(std::cmp::Reverse(item));
        } else if let Some(worst) = heap.peek() {
            if item > worst.0 {
                heap.pop();
                heap.push(std::cmp::Reverse(item));
            }
        }
    }
    let mut out: Vec<ScoredIdx> = heap.into_iter().map(|r| r.0).collect();
    out.sort_unstable_by(|a, b| b.cmp(a));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selects_best_k_sorted_desc() {
        let scores = vec![0.1, 5.0, 3.0, -2.0, 4.0];
        let top = top_k_indices(scores, 3);
        let ids: Vec<usize> = top.iter().map(|s| s.idx).collect();
        assert_eq!(ids, vec![1, 4, 2]);
        assert!(top[0].score >= top[1].score && top[1].score >= top[2].score);
    }

    #[test]
    fn k_zero_and_k_exceeding_len() {
        assert!(top_k_indices(vec![1.0, 2.0], 0).is_empty());
        let all = top_k_indices(vec![1.0, 2.0], 10);
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].idx, 1);
    }

    #[test]
    fn ties_break_by_lower_index_first() {
        let top = top_k_indices(vec![1.0, 1.0, 1.0], 2);
        assert_eq!(top[0].idx, 0);
        assert_eq!(top[1].idx, 1);
    }

    #[test]
    fn nan_never_wins() {
        let top = top_k_indices(vec![f32::NAN, 1.0, 2.0], 2);
        let ids: Vec<usize> = top.iter().map(|s| s.idx).collect();
        assert_eq!(ids, vec![2, 1]);
    }

    #[test]
    fn empty_input() {
        assert!(top_k_indices(Vec::<f32>::new(), 5).is_empty());
    }
}
