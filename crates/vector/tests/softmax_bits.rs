//! The tiled online softmax's association, pinned bit for bit.
//!
//! `OnlineSoftmax::push_rows` and `push_ids` sit under every attention path,
//! so every served output and the sequential oracle hang off their exact
//! bits. These tests compare them with the scalar reference in
//! `support/tile.rs` by `to_bits`, not a tolerance: a "cleanup" that
//! reorders the weighted row sum, folds the lane sums differently or swaps
//! `exp_approx` for `libm` fails here rather than as an oracle mismatch
//! three layers up. The edge scores (NaN, `-inf`, `+inf`) are pinned here
//! too.

#[path = "support/tile.rs"]
mod tile;

use alaya_vector::rng::{gaussian_store, gaussian_vec, seeded};
use alaya_vector::softmax::OnlineSoftmax;
use alaya_vector::VecStore;
use tile::TileReference;

/// `d` 16 and 32 take the register-held weighted sum; 4 and 64 the per-row
/// `axpy` fallback.
const DIMS: [usize; 4] = [4, 16, 32, 64];
/// One row, a tile short of full, full, one over, and several tiles with a
/// ragged last one.
const LENGTHS: [usize; 5] = [1, 63, 64, 65, 200];
/// Rows in front of the ones attended, so tiles start off row 0.
const OFFSET: usize = 3;

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn assert_same(got: &OnlineSoftmax, want: &TileReference, what: &str) {
    assert_eq!(got.max_score().to_bits(), want.max.to_bits(), "max, {what}");
    assert_eq!(got.sum().to_bits(), want.sum.to_bits(), "sum, {what}");
    assert_eq!(bits(&got.output()), bits(&want.output()), "output, {what}");
}

/// Raw scores and value rows of `ids`, as the reference takes them.
fn gather<'a>(
    q: &[f32],
    keys: &VecStore,
    values: &'a VecStore,
    ids: &[usize],
) -> (Vec<f32>, Vec<&'a [f32]>) {
    let raw = ids.iter().map(|&i| keys.dot_row(q, i)).collect();
    let rows = ids.iter().map(|&i| values.row(i)).collect();
    (raw, rows)
}

#[test]
fn push_rows_and_push_ids_equal_the_scalar_tile_bitwise() {
    for d in DIMS {
        for n in LENGTHS {
            let mut rng = seeded((d * 1000 + n) as u64);
            let keys = gaussian_store(&mut rng, n + OFFSET, d, 1.0);
            let values = gaussian_store(&mut rng, n + OFFSET, d, 1.0);
            let q = gaussian_vec(&mut rng, d, 1.0);
            let scale = 1.0 / (d as f32).sqrt();
            let what = format!("d={d} n={n}");

            let rows: Vec<usize> = (OFFSET..OFFSET + n).collect();
            let mut got = OnlineSoftmax::new(d);
            got.push_rows(&q, &keys, &values, scale, OFFSET..OFFSET + n);
            let mut want = TileReference::new(d);
            let (raw, vrows) = gather(&q, &keys, &values, &rows);
            want.absorb_call(&raw, scale, &vrows);
            assert_same(&got, &want, &format!("push_rows {what}"));

            // Unordered, with repeats (a stride walk that revisits rows),
            // into the same accumulators: a second call continues the state.
            let ids: Vec<u32> = (0..n).map(|i| ((i * 7 + 3) % (n / 2 + 2)) as u32).collect();
            got.push_ids(&q, &keys, &values, scale, &ids);
            let ids: Vec<usize> = ids.iter().map(|&i| i as usize).collect();
            let (raw, vrows) = gather(&q, &keys, &values, &ids);
            want.absorb_call(&raw, scale, &vrows);
            assert_same(&got, &want, &format!("then push_ids {what}"));
        }
    }
}

#[test]
fn scores_rising_block_over_block_rescale_every_tile() {
    for d in DIMS {
        let n = 200;
        let mut rng = seeded(d as u64);
        // Row i's score is 0.05·i plus noise well under a tile's rise, so
        // every tile's max beats the running max and rescales.
        let mut keys = gaussian_store(&mut rng, n, d, 0.01);
        for i in 0..n {
            keys.row_mut(i)[0] += 0.05 * i as f32;
        }
        let values = gaussian_store(&mut rng, n, d, 1.0);
        let mut q = vec![0.0f32; d];
        q[0] = 1.0;
        let mut got = OnlineSoftmax::new(d);
        let mut want = TileReference::new(d);
        let mut maxima = Vec::new();
        for start in (0..n).step_by(64) {
            let end = (start + 64).min(n);
            got.push_rows(&q, &keys, &values, 1.0, start..end);
            let ids: Vec<usize> = (start..end).collect();
            let (raw, vrows) = gather(&q, &keys, &values, &ids);
            want.absorb_call(&raw, 1.0, &vrows);
            assert_same(&got, &want, &format!("d={d} rows {start}..{end}"));
            maxima.push(got.max_score());
        }
        assert!(
            maxima.windows(2).all(|m| m[1] > m[0]),
            "d={d}: every tile must raise the max: {maxima:?}"
        );
        // The running max is the exact maximum score, as a scalar chain
        // would find it.
        let exact = (0..n)
            .map(|i| keys.dot_row(&q, i))
            .fold(f32::NEG_INFINITY, f32::max);
        assert_eq!(got.max_score().to_bits(), exact.to_bits(), "d={d}");
    }
}

/// Keys whose scores against `q` = e₀ are exactly `scores`.
fn keys_scoring(scores: &[f32], d: usize) -> (Vec<f32>, VecStore) {
    let mut q = vec![0.0f32; d];
    q[0] = 1.0;
    let mut keys = VecStore::with_capacity(d, scores.len());
    for &s in scores {
        let mut row = vec![0.0f32; d];
        row[0] = s;
        keys.push(&row);
    }
    (q, keys)
}

#[test]
fn nan_scores_get_zero_weight() {
    for d in DIMS {
        for n in [8usize, 65, 130] {
            let mut rng = seeded((d + n) as u64);
            let scores = gaussian_vec(&mut rng, n, 2.0);
            let values = gaussian_store(&mut rng, n, d, 1.0);
            let nan_rows: Vec<usize> = (0..n).filter(|i| i % 9 == 4).collect();
            let mut poisoned = scores.clone();
            for &i in &nan_rows {
                poisoned[i] = f32::NAN;
            }
            let (q, keys) = keys_scoring(&poisoned, d);
            let mut got = OnlineSoftmax::new(d);
            got.push_rows(&q, &keys, &values, 1.0, 0..n);
            let ids: Vec<usize> = (0..n).collect();
            let (raw, vrows) = gather(&q, &keys, &values, &ids);
            let mut want = TileReference::new(d);
            want.absorb_call(&raw, 1.0, &vrows);
            assert_same(&got, &want, &format!("d={d} n={n}"));

            // Numerically the same as leaving the NaN rows out.
            let kept: Vec<usize> = ids
                .iter()
                .copied()
                .filter(|i| !nan_rows.contains(i))
                .collect();
            let kept_ids: Vec<u32> = kept.iter().map(|&i| i as u32).collect();
            let mut without = OnlineSoftmax::new(d);
            without.push_ids(&q, &keys, &values, 1.0, &kept_ids);
            for (a, b) in got.output().iter().zip(without.output()) {
                assert!(a.is_finite() && (a - b).abs() <= 1e-6, "d={d} n={n}");
            }
            assert_eq!(got.max_score(), without.max_score());
        }
    }
}

#[test]
fn a_tile_of_only_neg_inf_or_nan_absorbs_nothing() {
    for d in DIMS {
        let edge: Vec<f32> = (0..70)
            .map(|i| {
                if i % 3 == 0 {
                    f32::NAN
                } else {
                    f32::NEG_INFINITY
                }
            })
            .collect();
        let (q, keys) = keys_scoring(&edge, d);
        let values = gaussian_store(&mut seeded(d as u64), edge.len(), d, 1.0);

        let mut acc = OnlineSoftmax::new(d);
        acc.push_rows(&q, &keys, &values, 1.0, 0..edge.len());
        acc.push_ids(&q, &keys, &values, 1.0, &[0, 1, 2]);
        assert!(acc.is_empty(), "d={d}");
        assert_eq!(acc.max_score(), f32::NEG_INFINITY);
        assert_eq!(acc.output(), vec![0.0; d]);
        let ids: Vec<usize> = (0..edge.len()).collect();
        let (raw, vrows) = gather(&q, &keys, &values, &ids);
        let mut want = TileReference::new(d);
        want.absorb_call(&raw, 1.0, &vrows);
        assert!(want.is_empty(), "d={d}: the reference agrees");

        // Single-row pushes of the same scores leave it empty too.
        acc.push(f32::NEG_INFINITY, values.row(0));
        acc.push(f32::NAN, values.row(1));
        assert!(acc.is_empty(), "d={d}");
        assert_eq!(acc.output(), vec![0.0; d]);

        // After a real score, such a tile leaves the state bit for bit.
        acc.push(0.5, values.row(2));
        let (max, sum, out) = (acc.max_score(), acc.sum(), acc.output());
        acc.push_rows(&q, &keys, &values, 1.0, 0..64);
        assert_eq!(acc.max_score().to_bits(), max.to_bits());
        assert_eq!(acc.sum().to_bits(), sum.to_bits());
        assert_eq!(bits(&acc.output()), bits(&out));
    }
}

#[test]
fn an_overflowed_score_keeps_the_ieee_result() {
    let d = 16;
    let (q, keys) = keys_scoring(&[0.5, f32::INFINITY, 1.0], d);
    let values = gaussian_store(&mut seeded(7), 3, d, 1.0);
    let mut acc = OnlineSoftmax::new(d);
    acc.push_rows(&q, &keys, &values, 1.0, 0..3);
    assert_eq!(acc.max_score(), f32::INFINITY);
    assert!(acc.output().iter().all(|x| x.is_nan()));
}
