//! The reduction kernels' association, pinned bit for bit.
//!
//! Every digest, oracle and `attn_fidelity` figure in the repository hangs
//! off the exact f32 bits `dot` produces, so these tests spell the documented
//! order out as scalar code and compare with `to_bits`, not a tolerance: a
//! "cleanup" that re-associates the sum (or fuses the multiply-add, or drops
//! the `0.0 +` the accumulators start from) fails here rather than as a
//! digest mismatch three layers up.

use alaya_vector::rng::{gaussian_store, gaussian_vec, seeded};
use alaya_vector::{dot, dot_many, dot_many_multi, l2_sq, VecStore};

const LANES: usize = 8;
const BLOCK: usize = 16;

/// The documented order: per 16-block, lane `l` of bank 0 / bank 1
/// accumulates the term of element `l` / `l + 8` (multiply, then add);
/// `acc0 + acc1` lane-wise; pairwise `fold8`; scalar tail left to right.
fn reference(a: &[f32], b: &[f32], term: impl Fn(f32, f32) -> f32) -> f32 {
    assert_eq!(a.len(), b.len());
    let blocks = a.len() / BLOCK;
    let mut acc0 = [0.0f32; LANES];
    let mut acc1 = [0.0f32; LANES];
    for c in 0..blocks {
        for l in 0..LANES {
            let (i, j) = (c * BLOCK + l, c * BLOCK + LANES + l);
            acc0[l] += term(a[i], b[i]);
            acc1[l] += term(a[j], b[j]);
        }
    }
    let s: Vec<f32> = (0..LANES).map(|l| acc0[l] + acc1[l]).collect();
    let mut sum = ((s[0] + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) + (s[6] + s[7]));
    for i in blocks * BLOCK..a.len() {
        sum += term(a[i], b[i]);
    }
    sum
}

fn mul(x: f32, y: f32) -> f32 {
    x * y
}

fn sq_diff(x: f32, y: f32) -> f32 {
    let d = x - y;
    d * d
}

#[test]
fn dot_and_l2_sq_equal_the_documented_association_bitwise() {
    let lengths = (0..=80).chain([128, 256, 512]);
    for n in lengths {
        for seed in 0..4u64 {
            let mut rng = seeded(1000 * n as u64 + seed);
            let a = gaussian_vec(&mut rng, n, 1.0);
            let b = gaussian_vec(&mut rng, n, 1.0);
            assert_eq!(
                dot(&a, &b).to_bits(),
                reference(&a, &b, mul).to_bits(),
                "dot n={n} seed={seed}"
            );
            assert_eq!(
                l2_sq(&a, &b).to_bits(),
                reference(&a, &b, sq_diff).to_bits(),
                "l2_sq n={n} seed={seed}"
            );
        }
    }
}

#[test]
fn block_kernels_equal_per_row_dot_bitwise_for_every_tile_remainder() {
    for d in [3usize, 16, 31, 32, 128] {
        // 0..=20 rows covers every remainder class of the row tile, with and
        // without full tiles in front.
        for n in 0..=20usize {
            let mut rng = seeded((d * 100 + n) as u64);
            // Two rows of padding so `dot_block` runs at a non-zero start.
            let store = gaussian_store(&mut rng, n + 2, d, 1.0);
            let q = gaussian_vec(&mut rng, d, 1.0);
            let want: Vec<u32> = (0..n + 2)
                .map(|i| dot(&q, store.row(i)).to_bits())
                .collect();
            let bits = |v: &[f32]| v.iter().map(|s| s.to_bits()).collect::<Vec<_>>();

            let mut many = vec![f32::NAN; n];
            dot_many(&q, &store.as_flat()[..n * d], &mut many);
            assert_eq!(bits(&many), want[..n], "dot_many d={d} n={n}");

            let row_bits: Vec<u32> = (0..n + 2).map(|i| store.dot_row(&q, i).to_bits()).collect();
            assert_eq!(row_bits, want, "dot_row d={d} n={n}");

            let mut block = vec![f32::NAN; n];
            store.dot_block(&q, 2, &mut block);
            assert_eq!(bits(&block), want[2..], "dot_block d={d} n={n}");

            // An interior block: starts past row 0 and ends before the last row.
            let mut interior = vec![f32::NAN; n];
            store.dot_block(&q, 1, &mut interior);
            assert_eq!(
                bits(&interior),
                want[1..=n],
                "interior dot_block d={d} n={n}"
            );

            let mut rows = vec![f32::NAN; n + 2];
            store.dot_rows(&q, &mut rows);
            assert_eq!(bits(&rows), want, "dot_rows d={d} n={n}");

            // Unordered, with repeats: a stride walk that revisits rows.
            let ids: Vec<u32> = (0..n).map(|i| ((i * 7 + 3) % (n / 2 + 2)) as u32).collect();
            let mut gathered = vec![f32::NAN; n];
            store.dot_ids(&q, &ids, &mut gathered);
            let want_ids: Vec<u32> = ids.iter().map(|&id| want[id as usize]).collect();
            assert_eq!(bits(&gathered), want_ids, "dot_ids d={d} n={n}");
        }
    }
}

#[test]
fn multi_query_kernel_equals_per_pair_dot_bitwise() {
    // 1..=5 queries covers a lone remainder, a full query tile and a tile
    // plus remainder; 0..=9 keys covers the empty block and every row count
    // around the tile.
    for d in [1usize, 15, 16, 17, 32, 33, 128] {
        for m in 1..=5usize {
            for n in 0..=9usize {
                let mut rng = seeded((d * 1000 + m * 10 + n) as u64);
                let keys = gaussian_store(&mut rng, n, d, 1.0);
                let queries = gaussian_store(&mut rng, m, d, 1.0);
                let mut out = vec![f32::NAN; m * n];
                dot_many_multi(d, queries.as_flat(), keys.as_flat(), &mut out);
                let mut via_store = vec![f32::NAN; m * n];
                keys.dot_rows_multi(queries.as_flat(), &mut via_store);
                for j in 0..m {
                    for i in 0..n {
                        let want = dot(queries.row(j), keys.row(i)).to_bits();
                        assert_eq!(
                            out[j * n + i].to_bits(),
                            want,
                            "d={d} m={m} n={n} ({j},{i})"
                        );
                        assert_eq!(
                            via_store[j * n + i].to_bits(),
                            want,
                            "store d={d} m={m} n={n}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn nan_row_poisons_only_its_own_score() {
    for d in [3usize, 32, 35] {
        let mut rng = seeded(d as u64);
        let mut store = gaussian_store(&mut rng, 9, d, 1.0);
        let q = gaussian_vec(&mut rng, d, 1.0);
        store.row_mut(5).fill(f32::NAN);
        let mut out = vec![0.0f32; 9];
        store.dot_rows(&q, &mut out);
        for (i, &s) in out.iter().enumerate() {
            assert_eq!(s.is_nan(), i == 5, "d={d} row {i}");
            assert_eq!(
                s.to_bits(),
                dot(&q, store.row(i)).to_bits(),
                "d={d} row {i}"
            );
        }
        assert_eq!(out[5].to_bits(), f32::NAN.to_bits(), "d={d}");
    }
}

#[test]
fn negative_zero_products_sum_to_positive_zero() {
    // Every product is -0.0, but the accumulators (and the tail's running
    // sum) start from +0.0 and `0.0 + -0.0 == +0.0`: a kernel that seeded an
    // accumulator with its first product instead would return -0.0.
    for n in 0..=80usize {
        let a = vec![-0.0f32; n];
        let b = vec![1.0f32; n];
        assert_eq!(dot(&a, &b).to_bits(), 0, "dot n={n}");
        assert_eq!(reference(&a, &b, mul).to_bits(), 0, "reference n={n}");
        let d = n.max(1);
        let store = VecStore::from_flat(d, vec![-0.0f32; d * 5]);
        let mut out = vec![f32::NAN; 5];
        store.dot_rows(&vec![1.0; d], &mut out);
        assert!(out.iter().all(|s| s.to_bits() == 0), "dot_rows n={n}");
    }
}
