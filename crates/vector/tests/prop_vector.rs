//! Property-based tests for the numeric substrate.

use alaya_vector::softmax::{softmax_in_place, OnlineSoftmax};
use alaya_vector::topk::{top_k_scored, ScoredIdx};
use alaya_vector::{dot, dot_many, l2_sq, top_k_indices, VecStore, SOFTMAX_REL_TOL};
use proptest::prelude::*;

fn finite_vec(len: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-100.0f32..100.0, len)
}

/// The blocked reduction kernels consume 16-element blocks; exercising
/// every length `0..=2·16` covers every lane/tail remainder class.
const KERNEL_BLOCK: usize = 16;

/// Error bound of a tiled `OnlineSoftmax` (`push_rows`/`push_ids`) against
/// an exact f64 softmax-weighted sum of the same scores: each output element
/// is within `TILE_REL_TOL · Σᵢ pᵢ·|vᵢ[k]|` of the exact value. It covers
/// `exp_approx`'s ~3e-7 per weight plus the f32 accumulation of a few
/// hundred rows.
const TILE_REL_TOL: f64 = 1e-5;

proptest! {
    /// Blocked `dot` matches a naive left-to-right f64 scalar reference at
    /// every tail length 0..=2·block. The tolerance is the documented
    /// re-association bound, scaled by the magnitude of the terms.
    #[test]
    fn blocked_dot_matches_naive_all_tail_lengths(seed in 0u64..500) {
        for n in 0..=2 * KERNEL_BLOCK {
            let a: Vec<f32> = (0..n)
                .map(|i| ((seed as f32) * 0.11 + i as f32 * 0.7).sin() * 3.0)
                .collect();
            let b: Vec<f32> = (0..n)
                .map(|i| ((seed as f32) * 0.05 + i as f32 * 0.4).cos() * 2.0)
                .collect();
            let exact: f64 = a.iter().zip(&b).map(|(x, y)| (*x as f64) * (*y as f64)).sum();
            let mag: f64 = a.iter().zip(&b).map(|(x, y)| ((*x as f64) * (*y as f64)).abs()).sum();
            let got = dot(&a, &b) as f64;
            prop_assert!(
                (got - exact).abs() <= 1e-6 * mag.max(1.0),
                "n={} got={} exact={}", n, got, exact
            );
        }
    }

    /// Blocked `l2_sq` matches the naive f64 reference at every tail length.
    #[test]
    fn blocked_l2_sq_matches_naive_all_tail_lengths(seed in 0u64..500) {
        for n in 0..=2 * KERNEL_BLOCK {
            let a: Vec<f32> = (0..n)
                .map(|i| ((seed as f32) * 0.13 + i as f32 * 0.9).sin() * 4.0)
                .collect();
            let b: Vec<f32> = (0..n)
                .map(|i| ((seed as f32) * 0.07 + i as f32 * 0.6).cos() * 3.0)
                .collect();
            let exact: f64 = a
                .iter()
                .zip(&b)
                .map(|(x, y)| {
                    let d = (*x as f64) - (*y as f64);
                    d * d
                })
                .sum();
            let got = l2_sq(&a, &b) as f64;
            prop_assert!(
                (got - exact).abs() <= 1e-6 * exact.max(1.0),
                "n={} got={} exact={}", n, got, exact
            );
        }
    }

    /// `dot_many` over a contiguous block is bitwise identical to per-row
    /// `dot` for arbitrary (dim, rows) shapes.
    #[test]
    fn dot_many_bitwise_equals_per_row_dot(
        d in 0usize..=2 * KERNEL_BLOCK,
        rows in 0usize..8,
        seed in 0u64..200,
    ) {
        let q: Vec<f32> = (0..d).map(|i| ((seed as f32) + i as f32 * 0.8).sin()).collect();
        let keys: Vec<f32> =
            (0..d * rows).map(|i| ((seed as f32) * 0.3 + i as f32 * 0.5).cos()).collect();
        let mut out = vec![1.23f32; rows];
        dot_many(&q, &keys, &mut out);
        for (i, &got) in out.iter().enumerate() {
            let want = if d == 0 { 0.0 } else { dot(&q, &keys[i * d..(i + 1) * d]) };
            prop_assert_eq!(got.to_bits(), want.to_bits(), "d={} row={}", d, i);
        }
    }

    /// Fused vectorized softmax stays within its documented per-element
    /// relative tolerance of an exact f64 softmax, at every tail length.
    #[test]
    fn softmax_within_documented_tolerance(seed in 0u64..300) {
        for n in 1..=2 * KERNEL_BLOCK {
            let x: Vec<f32> = (0..n)
                .map(|i| ((seed as f32) * 0.21 + i as f32 * 1.1).sin() * 8.0)
                .collect();
            let mut got = x.clone();
            softmax_in_place(&mut got);
            let m = x.iter().cloned().fold(f32::NEG_INFINITY, f32::max) as f64;
            let exps: Vec<f64> = x.iter().map(|&v| ((v as f64) - m).exp()).collect();
            let sum: f64 = exps.iter().sum();
            for (i, (&g, e)) in got.iter().zip(&exps).enumerate() {
                let want = (e / sum) as f32;
                let rel = ((g - want) / want.max(1e-30)).abs();
                prop_assert!(rel < SOFTMAX_REL_TOL, "n={} i={} rel={}", n, i, rel);
            }
        }
    }

    /// Softmax output is a probability distribution whenever input is non-empty.
    #[test]
    fn softmax_is_distribution(mut x in prop::collection::vec(-50.0f32..50.0, 1..64)) {
        softmax_in_place(&mut x);
        let sum: f32 = x.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-4);
        prop_assert!(x.iter().all(|&v| (0.0..=1.0 + 1e-6).contains(&v)));
    }

    /// Softmax is invariant to adding a constant to every score.
    #[test]
    fn softmax_shift_invariant(x in prop::collection::vec(-20.0f32..20.0, 1..32), c in -30.0f32..30.0) {
        let mut a = x.clone();
        softmax_in_place(&mut a);
        let mut b: Vec<f32> = x.iter().map(|v| v + c).collect();
        softmax_in_place(&mut b);
        for (p, q) in a.iter().zip(&b) {
            prop_assert!((p - q).abs() < 1e-4);
        }
    }

    /// The tiled accumulator (`push_rows` for the first rows, `push_ids` in
    /// a permuted order for the rest) matches an exact f64 softmax-weighted
    /// sum within `TILE_REL_TOL`, at every `d` the weighted sum dispatches
    /// on and across tile boundaries.
    #[test]
    fn tiled_online_softmax_matches_f64_weighted_sum(
        scores in prop::collection::vec(-20.0f32..20.0, 1..300),
        dim_pick in 0usize..4,
        split in 0usize..300,
        seed in 0u64..1000,
    ) {
        let n = scores.len();
        let d = [4, 16, 32, 64][dim_pick];
        let split = split.min(n);
        // Keys scoring exactly `scores` against q = e₀.
        let mut q = vec![0.0f32; d];
        q[0] = 1.0;
        let mut keys = VecStore::with_capacity(d, n);
        let mut values = VecStore::with_capacity(d, n);
        for (i, &s) in scores.iter().enumerate() {
            let mut key = vec![0.0f32; d];
            key[0] = s;
            keys.push(&key);
            let value: Vec<f32> = (0..d)
                .map(|k| ((seed as f32) * 0.013 + i as f32 * 0.37 + k as f32 * 1.3).sin() * 3.0)
                .collect();
            values.push(&value);
        }
        let mut acc = OnlineSoftmax::new(d);
        acc.push_rows(&q, &keys, &values, 1.0, 0..split);
        let rest: Vec<u32> = (split..n).rev().map(|i| i as u32).collect();
        acc.push_ids(&q, &keys, &values, 1.0, &rest);

        let m = scores.iter().cloned().fold(f32::NEG_INFINITY, f32::max) as f64;
        let exps: Vec<f64> = scores.iter().map(|&s| (s as f64 - m).exp()).collect();
        let total: f64 = exps.iter().sum();
        for (k, &got) in acc.output().iter().enumerate() {
            let (mut want, mut mag) = (0.0f64, 0.0f64);
            for (i, e) in exps.iter().enumerate() {
                let v = values.row(i)[k] as f64;
                want += e / total * v;
                mag += e / total * v.abs();
            }
            prop_assert!(
                (got as f64 - want).abs() <= TILE_REL_TOL * mag,
                "n={} d={} k={}: {} vs {}", n, d, k, got, want
            );
        }
    }

    /// top_k_indices returns exactly the k best scores, in descending order.
    #[test]
    fn topk_matches_full_sort(x in prop::collection::vec(-100.0f32..100.0, 0..128), k in 0usize..32) {
        let got = top_k_indices(&x, k);
        let mut want: Vec<(usize, f32)> = x.iter().cloned().enumerate().collect();
        want.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        want.truncate(k);
        prop_assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            prop_assert_eq!(g.score, w.1);
        }
        // Descending order.
        for pair in got.windows(2) {
            prop_assert!(pair[0].score >= pair[1].score);
        }
    }

    /// Gated selection equals "sort everything descending, truncate to k"
    /// on the inputs built to break a threshold gate: all-equal scores, NaNs
    /// and infinities mixed in, signed zeros, ascending and descending runs
    /// (every score / no score passes the running bound), `k = 0`, `k ≥ n`,
    /// and every group size the gate dispatches on. `top_k_scored` gets the
    /// same scores under ids that run against position order.
    #[test]
    fn gated_selection_equals_sort_then_truncate(
        codes in prop::collection::vec(0usize..10, 0..400),
        shape in 0usize..4,
        k in 0usize..450,
    ) {
        const PALETTE: [f32; 10] = [
            f32::NAN, f32::NEG_INFINITY, f32::INFINITY, 0.0, -0.0, 1.0, 1.0, -1.0, 2.5, 1e-3,
        ];
        let n = codes.len();
        let scores: Vec<f32> = codes
            .iter()
            .enumerate()
            .map(|(i, &c)| match shape {
                0 => PALETTE[c],
                1 => PALETTE[codes[0]],
                _ if c == 0 => f32::NAN,
                2 => i as f32,
                _ => -(i as f32),
            })
            .collect();
        let bits = |v: &[ScoredIdx]| -> Vec<(usize, u32)> {
            v.iter().map(|s| (s.idx, s.score.to_bits())).collect()
        };
        let sort_then_truncate = |mut all: Vec<ScoredIdx>| {
            all.sort_by(|a, b| b.cmp(a));
            all.truncate(k);
            all
        };

        let by_position: Vec<ScoredIdx> = scores
            .iter()
            .enumerate()
            .map(|(idx, &score)| ScoredIdx { idx, score })
            .collect();
        prop_assert_eq!(
            bits(&top_k_indices(&scores, k)),
            bits(&sort_then_truncate(by_position))
        );

        let reversed_ids: Vec<ScoredIdx> = scores
            .iter()
            .enumerate()
            .map(|(i, &score)| ScoredIdx { idx: 3 * (n - i), score })
            .collect();
        prop_assert_eq!(
            bits(&top_k_scored(&reversed_ids, k)),
            bits(&sort_then_truncate(reversed_ids.clone()))
        );
    }

    /// dot is symmetric and linear in its first argument.
    #[test]
    fn dot_symmetry_and_linearity(a in finite_vec(16), b in finite_vec(16), alpha in -5.0f32..5.0) {
        prop_assert!((dot(&a, &b) - dot(&b, &a)).abs() < 1e-2);
        let scaled: Vec<f32> = a.iter().map(|v| v * alpha).collect();
        prop_assert!((dot(&scaled, &b) - alpha * dot(&a, &b)).abs() < 2e-1);
    }

    /// VecStore prefix rows equal the original rows.
    #[test]
    fn vecstore_prefix_preserves_rows(rows in prop::collection::vec(finite_vec(8), 1..32), n in 0usize..32) {
        let mut s = VecStore::new(8);
        for r in &rows {
            s.push(r);
        }
        let n = n.min(s.len());
        let p = s.prefix(n);
        prop_assert_eq!(p.len(), n);
        for i in 0..n {
            prop_assert_eq!(p.row(i), s.row(i));
        }
    }
}
