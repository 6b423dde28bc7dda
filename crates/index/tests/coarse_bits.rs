//! The Quest bound's f32 association, pinned bit for bit.
//!
//! `CoarseIndex` stores min/max bounds block-transposed and scores a table
//! group per vector step, one block per lane. The coarse plan's digest hangs
//! off the exact bits of each block's score, so this test spells the
//! per-block bound out as scalar code over the keys and compares
//! `select_blocks` and `block_score` with `to_bits`: a lane that starts from
//! `+0.0` instead of `Iterator::sum`'s `-0.0`, swaps the `max` operands or
//! re-associates the sum fails here. NaN scores compare as NaN, whatever
//! their payload, because Rust does not specify NaN bit patterns.

use alaya_index::coarse::{BlockScoring, CoarseIndex, BOUND_LANES};
use alaya_vector::rng::{gaussian_vec, seeded};
use alaya_vector::topk::ScoredIdx;
use alaya_vector::VecStore;

const BLOCK: usize = 3;

/// Per-block minima and maxima: the block's first row, then `f32::min` /
/// `f32::max` with each later row in order.
fn reference_bounds(keys: &VecStore) -> Vec<(Vec<f32>, Vec<f32>)> {
    (0..keys.len().div_ceil(BLOCK))
        .map(|b| {
            let rows = b * BLOCK..((b + 1) * BLOCK).min(keys.len());
            let mut lo = keys.row(rows.start).to_vec();
            let mut hi = lo.clone();
            for t in rows.skip(1) {
                for (d, &v) in keys.row(t).iter().enumerate() {
                    lo[d] = lo[d].min(v);
                    hi[d] = hi[d].max(v);
                }
            }
            (lo, hi)
        })
        .collect()
}

/// The per-block score: from `-0.0` (the start value of `Iterator::sum`),
/// add `(q·lo).max(q·hi)` for each dimension left to right.
fn reference_score(q: &[f32], (lo, hi): &(Vec<f32>, Vec<f32>)) -> f32 {
    let mut sum = -0.0f32;
    for d in 0..q.len() {
        sum += (q[d] * lo[d]).max(q[d] * hi[d]);
    }
    sum
}

fn bits(score: f32) -> u32 {
    if score.is_nan() {
        f32::NAN.to_bits()
    } else {
        score.to_bits()
    }
}

/// `n` keys of dimension `dim`. With `special`, about one entry in eleven
/// is NaN, ±inf or ±0, and the last row is all NaN but for a -0.0.
fn key_rows(n: usize, dim: usize, special: bool, seed: u64) -> VecStore {
    let mut rng = seeded(seed);
    let mut keys = VecStore::from_flat(dim, gaussian_vec(&mut rng, n * dim, 1.0));
    if special {
        let values = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 0.0, -0.0];
        for t in 0..n {
            for (d, x) in keys.row_mut(t).iter_mut().enumerate() {
                if (t * 7 + d * 3) % 11 == 0 {
                    *x = values[(t + d) % values.len()];
                }
            }
        }
        let last = keys.row_mut(n - 1);
        last.fill(f32::NAN);
        last[0] = -0.0;
    }
    keys
}

fn queries(dim: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = seeded(seed);
    let mut qs: Vec<Vec<f32>> = (0..3).map(|_| gaussian_vec(&mut rng, dim, 1.0)).collect();
    // Signed zeros: every product is ±0, so the sum's start value and the
    // `max` operand order decide the sign of the score.
    qs.push((0..dim).map(|d| [0.0, -0.0][d % 2]).collect());
    qs
}

#[test]
fn minmax_scores_equal_the_scalar_per_block_reference_bitwise() {
    let block_counts = [1, BOUND_LANES - 1, BOUND_LANES, BOUND_LANES + 1, 64, 65];
    for n_blocks in block_counts {
        for dim in [1usize, 4, 32, 33] {
            // A full last block, a ragged one of a single token, and both
            // again with special values in the keys.
            for (ragged, special) in [(false, false), (true, false), (false, true), (true, true)] {
                let n = n_blocks * BLOCK - if ragged { BLOCK - 1 } else { 0 };
                let case = format!("blocks={n_blocks} dim={dim} ragged={ragged} special={special}");
                let keys = key_rows(n, dim, special, (n_blocks * 100 + dim) as u64);
                let index = CoarseIndex::build(&keys, BLOCK, BlockScoring::MinMaxBounds);
                assert_eq!(index.n_blocks(), n_blocks, "{case}");
                let bounds = reference_bounds(&keys);
                for q in queries(dim, dim as u64) {
                    let want: Vec<ScoredIdx> = bounds
                        .iter()
                        .enumerate()
                        .map(|(idx, b)| ScoredIdx {
                            idx,
                            score: reference_score(&q, b),
                        })
                        .collect();
                    for w in &want {
                        let got = index.block_score(&q, w.idx);
                        assert_eq!(bits(got), bits(w.score), "{case} block {}", w.idx);
                    }
                    let mut ranked = want.clone();
                    ranked.sort_by(|a, b| b.cmp(a));
                    for k in [1, 5, n_blocks] {
                        let key = |v: &[ScoredIdx]| -> Vec<(usize, u32)> {
                            v.iter().map(|s| (s.idx, bits(s.score))).collect()
                        };
                        let got = index.select_blocks(&q, k);
                        assert_eq!(key(&got), key(&ranked[..k.min(n_blocks)]), "{case} k={k}");
                    }
                }
            }
        }
    }
}

#[test]
fn sum_starts_from_negative_zero() {
    // The reference's start value is `Iterator::sum`'s; a toolchain that
    // changed it would change every lane's sign on all-zero products.
    assert_eq!([-0.0f32].iter().sum::<f32>().to_bits(), (-0.0f32).to_bits());
    // Two blocks of -0.0 keys.
    let keys = VecStore::from_flat(2, vec![-0.0; 2 * 2 * BLOCK]);
    let index = CoarseIndex::build(&keys, BLOCK, BlockScoring::MinMaxBounds);
    assert_eq!(
        index.block_score(&[1.0, 1.0], 1).to_bits(),
        (-0.0f32).to_bits()
    );
    assert_eq!(
        index.select_blocks(&[1.0, 1.0], 2)[0].score.to_bits(),
        (-0.0f32).to_bits()
    );
}
