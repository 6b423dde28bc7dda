//! Partial selection: top-k by score.
//!
//! Used by the flat index for brute-force top-k queries, by the coarse
//! index's block selection and by index construction — both RoarGraph
//! stages are exact kNN passes that select once per scored row, so
//! selection has to cost less than the inner products it ranks.
//!
//! Selection is **threshold-gated**. A first pass takes the maximum of
//! every group of `G` consecutive scores (a vectorized `max`); the `k`-th
//! largest group maximum is a lower bound on the `k`-th largest score,
//! because `k` different groups each hold a score at least that large. The
//! second pass compares each score against that gate with one plain `f32`
//! compare — skipping whole groups whose maximum is below it — and only the
//! survivors (the top `k` plus a handful: `G` is chosen so that about `2k`
//! groups exist, which puts the gate at the median group maximum) and exact
//! ties with the gate are turned into [`ScoredIdx`] and ranked by its total
//! order. The result is exactly "sort everything descending, truncate to
//! `k`", NaN-lowest and lower-index-first included, for any `k`.
//!
//! Why not gate on the running `k`-th best of a heap or a sorted buffer: on
//! the scans served here (`k` = 13 of `n` = 384…2048) about `k·ln(n/k)`
//! candidates enter, and each entry costs a mispredicted branch plus several
//! [`ScoredIdx`] comparisons — 7–10 ns per *score* at `n` = 384 for a
//! bounded heap, a sorted insertion and a `2k` reservoir alike, more than
//! the 3–4 ns inner product being ranked. The two-pass form reads 1.2 ns
//! per score there and 0.6 at `n` = 2048 (`kernels` bench, group `knn`).

use std::cmp::Ordering;

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

/// Returns the indices of the `k` highest `scores`, best first.
///
/// `k == 0` returns an empty vector, and fewer than `k` scores return
/// everything sorted.
pub fn top_k_indices(scores: &[f32], k: usize) -> Vec<ScoredIdx> {
    select(
        scores,
        k,
        |&score| score,
        |idx, &score| ScoredIdx { idx, score },
    )
}

/// The `k` greatest of `items` under [`ScoredIdx`]'s total order, best
/// first — [`top_k_indices`] for candidates that carry their own ids (a
/// filtered scan). Equal to sorting everything descending and truncating to
/// `k`, without materializing the full order.
pub fn top_k_scored(items: &[ScoredIdx], k: usize) -> Vec<ScoredIdx> {
    select(items, k, |item| item.score, |_, &item| item)
}

/// Gated selection over `items` (see the module docs): `score` reads an
/// item's score, `entry` builds the ranked entry of position `pos`. The
/// group size is the largest power of two up to 16 that leaves at least
/// `2k` groups; with fewer than `2k` items every item is its own group and
/// the gate is the exact `k`-th largest score.
fn select<T>(
    items: &[T],
    k: usize,
    score: impl Fn(&T) -> f32,
    entry: impl Fn(usize, &T) -> ScoredIdx,
) -> Vec<ScoredIdx> {
    if k == 0 {
        return Vec::new();
    }
    match items.len() / k.saturating_mul(2) {
        16.. => select_grouped::<16, T>(items, k, score, entry),
        8..=15 => select_grouped::<8, T>(items, k, score, entry),
        4..=7 => select_grouped::<4, T>(items, k, score, entry),
        2..=3 => select_grouped::<2, T>(items, k, score, entry),
        _ => select_grouped::<1, T>(items, k, score, entry),
    }
}

fn select_grouped<const G: usize, T>(
    items: &[T],
    k: usize,
    score: impl Fn(&T) -> f32,
    entry: impl Fn(usize, &T) -> ScoredIdx,
) -> Vec<ScoredIdx> {
    // `f32::max` skips NaN, so a maximum is never NaN and an all-NaN group
    // reads -inf.
    let group_max = |group: &[T]| group.iter().map(&score).fold(f32::NEG_INFINITY, f32::max);
    let body = items.chunks_exact(G);
    let tail = body.remainder();
    let mut maxima: Vec<f32> = Vec::with_capacity(items.len() / G + 1);
    maxima.extend(body.map(group_max));
    if !tail.is_empty() {
        maxima.push(group_max(tail));
    }

    // At least `k` items score `gate` or more (one per group among the `k`
    // best groups), so an item strictly below it cannot be in the top `k`.
    // With fewer than `k` groups, or a -inf `k`-th maximum, nothing is
    // below the gate and everything is ranked.
    let gate = if maxima.len() < k {
        f32::NEG_INFINITY
    } else {
        let mut ranked = maxima.clone();
        *ranked
            .select_nth_unstable_by(k - 1, |a, b| b.total_cmp(a))
            .1
    };

    let mut best: Vec<ScoredIdx> = Vec::with_capacity(items.len().min(k.saturating_mul(2)));
    for (g, (group, &max)) in items.chunks(G).zip(&maxima).enumerate() {
        if max < gate {
            continue;
        }
        for (j, item) in group.iter().enumerate() {
            // A NaN score fails this compare too, and is ranked last below.
            if score(item) < gate {
                continue;
            }
            best.push(entry(g * G + j, item));
        }
    }
    best.sort_unstable_by(|a, b| b.cmp(a));
    best.truncate(k);
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selects_best_k_sorted_desc() {
        let scores = vec![0.1, 5.0, 3.0, -2.0, 4.0];
        let top = top_k_indices(&scores, 3);
        let ids: Vec<usize> = top.iter().map(|s| s.idx).collect();
        assert_eq!(ids, vec![1, 4, 2]);
        assert!(top[0].score >= top[1].score && top[1].score >= top[2].score);
    }

    #[test]
    fn k_zero_and_k_exceeding_len() {
        assert!(top_k_indices(&[1.0, 2.0], 0).is_empty());
        let all = top_k_indices(&[1.0, 2.0], 10);
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].idx, 1);
    }

    #[test]
    fn ties_break_by_lower_index_first() {
        let top = top_k_indices(&[1.0, 1.0, 1.0], 2);
        assert_eq!(top[0].idx, 0);
        assert_eq!(top[1].idx, 1);
    }

    #[test]
    fn nan_never_wins() {
        let top = top_k_indices(&[f32::NAN, 1.0, 2.0], 2);
        let ids: Vec<usize> = top.iter().map(|s| s.idx).collect();
        assert_eq!(ids, vec![2, 1]);
    }

    #[test]
    fn every_group_size_matches_full_sort() {
        // 400 scores with repeats (ties at the gate) and a NaN every 37th;
        // `k` walks the dispatch from 16-score groups down to one per group,
        // then past the input length.
        let scores: Vec<f32> = (0..400)
            .map(|i| match i % 37 {
                0 => f32::NAN,
                r => ((i * 7919) % 101) as f32 - r as f32,
            })
            .collect();
        for k in [1usize, 12, 20, 40, 80, 150, 399, 400, 500] {
            let mut want: Vec<ScoredIdx> = scores
                .iter()
                .enumerate()
                .map(|(idx, &score)| ScoredIdx { idx, score })
                .collect();
            want.sort_by(|a, b| b.cmp(a));
            want.truncate(k);
            let got = top_k_indices(&scores, k);
            let ids = |v: &[ScoredIdx]| v.iter().map(|s| s.idx).collect::<Vec<_>>();
            assert_eq!(ids(&got), ids(&want), "k={k}");
        }
    }

    #[test]
    fn empty_input() {
        assert!(top_k_indices(&[], 5).is_empty());
    }
}
