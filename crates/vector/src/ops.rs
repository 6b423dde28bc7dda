//! Multi-lane vector kernels: inner product, axpy, scaling, norms.
//!
//! The inner product is the single hottest operation in AlayaDB — it is the
//! scoring function of every query type (Definition 2 in the paper reduces
//! critical-token membership to an inner-product threshold). The reduction
//! kernels ([`dot`], [`l2_sq`], [`dot_many`]) are one generic routine,
//! `reduce_rows`: 16-element blocks of the query are multiplied into two
//! 8-lane accumulator banks per row, up to [`TILE`] rows in lockstep, then
//! each row's lane sums are folded to a scalar. Portable safe Rust — no
//! `unsafe`, no intrinsics, no per-architecture fork. Elementwise kernels
//! ([`axpy`], [`scale`]) are pure maps and compute bit-identical results to
//! the naive loop.
//!
//! # What the compiler does with it, and the barrier
//!
//! The accumulate loop is written as whole-`[f32; 8]` updates so each bank is
//! one `ymm` multiply and one `ymm` add per block (AVX2/AVX-512 under the
//! workspace's `-C target-cpu=native`). Left alone, LLVM does *not* keep it
//! that way: it sees the pairwise `fold8` tree that consumes the lane sums
//! and pushes the tree back into the loop, so every block pays eight
//! shuffles and eight `xmm`-half adds (15–18 GB/s on the host below). The
//! lane sums therefore pass through [`core::hint::black_box`] between the
//! loop and the fold. The barrier is for performance only — it is an
//! identity function and the bits do not depend on it; the out-of-line-fold
//! alternative measured 10–20 % slower at d ≤ 32.
//!
//! Measured on the 2-core AVX-512 Xeon VM this repository is developed on
//! (`cargo bench -p alaya-bench --bench kernels`, group `roofline`;
//! `read_sum`, four 8-lane add chains over the same buffer, is the roofline:
//! 105–114 GB/s at 256 KB in L2, 24–26 GB/s streaming 9 MB), before → after
//! the barrier and the row tile: `dot_many` at d = 32 × 2048 rows 14–15 →
//! 34–37 GB/s (8.7 → 3.5 ns/row) and the gathered `dot_ids` 12–13 → 28–32;
//! at d = 256 × 9000 rows `dot_many` 16 → 25 GB/s and `dot_ids` 8.5 → 19.
//! The streaming case sits at the roofline; the L2-resident one at a third
//! of it, bound by the per-row fold rather than by bandwidth.
//!
//! # Reduction order and rounding
//!
//! Multi-lane reductions re-associate the f32 sum. For each 16-block, lane
//! `l` of bank 0 accumulates element `l` and lane `l` of bank 1 element
//! `l + 8` (separate multiply and add, never fused); the banks are added
//! lane-wise (`acc0 + acc1`), the eight lane sums folded pairwise
//! (`fold8`), and the `len % 16` tail added left to right. The result
//! differs from a left-to-right scalar sum by normal f32 rounding — bounded
//! by `n · ε · Σ|aᵢ·bᵢ|` (in practice ≤ ~1e-6 relative for the
//! dimensionalities used here; property-tested against an f64 reference in
//! `tests/prop_vector.rs`). The association is *fixed* and pinned bitwise by
//! a scalar reference in this module's tests: for a given input, [`dot`] is
//! bitwise deterministic across calls, threads and machines, and
//! [`dot_many`] is bitwise identical to per-row [`dot`].

use core::hint::black_box;

/// Elements per SIMD lane bank. Each row accumulates into two banks of
/// `LANES` lanes.
const LANES: usize = 8;
/// Reduction block: each loop iteration consumes `BLOCK` elements per row.
const BLOCK: usize = 2 * LANES;
/// Rows the block kernels ([`dot_many`], `VecStore::dot_ids`) accumulate in
/// lockstep: each query block is loaded once per tile, and `TILE` rows × 2
/// banks plus the 2 query registers fit AVX2's 16 vector registers (8 rows
/// spill and measured slower at d ≤ 32).
pub(crate) const TILE: usize = 4;

/// Pairwise fold of one row's lane sums (fixed association).
#[inline(always)]
fn fold8(a: [f32; LANES]) -> f32 {
    ((a[0] + a[1]) + (a[2] + a[3])) + ((a[4] + a[5]) + (a[6] + a[7]))
}

/// Copies a lane-sized slice into a value array, so each bank update in the
/// accumulate loop is one straight-line 8-wide operation on values rather
/// than eight indexed slice reads.
#[inline(always)]
fn load(c: &[f32]) -> [f32; LANES] {
    c.try_into().expect("lane-sized chunk")
}

/// The one blocked reduction: `out[r] = Σᵢ term(q[i], rows[r][i])` in the
/// association the module docs spell out, for `R` rows in lockstep.
///
/// Every row must be at least `q.len()` long (extra elements are ignored).
#[inline(always)]
fn reduce_rows<const R: usize>(
    q: &[f32],
    rows: [&[f32]; R],
    term: impl Fn(f32, f32) -> f32,
    out: &mut [f32],
) {
    debug_assert_eq!(out.len(), R);
    let (body, tail) = q.split_at(q.len() - q.len() % BLOCK);
    let mut acc = [[[0.0f32; LANES]; 2]; R];
    for (c, x) in body.chunks_exact(BLOCK).enumerate() {
        let (x0, x1) = (load(&x[..LANES]), load(&x[LANES..]));
        for r in 0..R {
            let y = &rows[r][c * BLOCK..(c + 1) * BLOCK];
            let (y0, y1) = (load(&y[..LANES]), load(&y[LANES..]));
            acc[r][0] = core::array::from_fn(|l| acc[r][0][l] + term(x0[l], y0[l]));
            acc[r][1] = core::array::from_fn(|l| acc[r][1][l] + term(x1[l], y1[l]));
        }
    }
    let mut lanes: [[f32; LANES]; R] =
        core::array::from_fn(|r| core::array::from_fn(|l| acc[r][0][l] + acc[r][1][l]));
    // Performance only (see the module docs): keeps the fold below from
    // being scheduled into the loop above. The bits do not depend on it.
    black_box(&mut lanes);
    for (r, (o, lane_sums)) in out.iter_mut().zip(lanes).enumerate() {
        let mut s = fold8(lane_sums);
        for (x, y) in tail.iter().zip(&rows[r][body.len()..]) {
            s += term(*x, *y);
        }
        *o = s;
    }
}

/// Inner product `a · b`.
///
/// Both slices must have equal length; this is asserted in debug builds
/// only.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut s = [0.0f32];
    reduce_rows(a, [b], |x, y| x * y, &mut s);
    s[0]
}

/// Scores `q` against [`TILE`] rows at once: `out[r] = q · rows[r]`, each
/// bitwise the per-row [`dot`]. The unit of work of [`dot_many`] and of the
/// gathered `VecStore::dot_ids`.
#[inline(always)]
pub(crate) fn dot_tile(q: &[f32], rows: [&[f32]; TILE], out: &mut [f32]) {
    reduce_rows(q, rows, |x, y| x * y, out);
}

/// Scores `q` against a block of contiguous row-major keys.
///
/// `keys` holds `out.len()` rows of dimensionality `q.len()`; `out[i]`
/// receives `q · keys[i]`. Rows are scored [`TILE`] at a time (remainder
/// rows one at a time) and each uses exactly the [`dot`] reduction, so every
/// score is **bitwise identical** to a per-row `dot(q, row)` call — hot
/// callers (flat scans, DIPRS candidate expansion, attention over a stored
/// context, the model's matvecs) score a whole block per call, loading each
/// query block once per tile instead of once per key.
///
/// # Panics
/// Panics if `keys.len() != q.len() * out.len()`.
#[inline]
pub fn dot_many(q: &[f32], keys: &[f32], out: &mut [f32]) {
    let d = q.len();
    assert_eq!(
        keys.len(),
        d * out.len(),
        "keys must hold out.len() rows of dim q.len()"
    );
    if d == 0 {
        out.fill(0.0);
        return;
    }
    let mut outs = out.chunks_exact_mut(TILE);
    let mut tiles = keys.chunks_exact(TILE * d);
    for (o, k) in (&mut outs).zip(&mut tiles) {
        dot_tile(q, core::array::from_fn(|r| &k[r * d..(r + 1) * d]), o);
    }
    let rest = tiles.remainder().chunks_exact(d);
    for (o, row) in outs.into_remainder().iter_mut().zip(rest) {
        *o = dot(q, row);
    }
}

/// Scores a tile of queries against a block of contiguous row-major keys
/// in **one pass over the keys**: `queries` holds `m` rows and `keys` holds
/// `n` rows of dimensionality `dim`, and `out[j * n + i]` receives
/// `queries[j] · keys[i]`.
///
/// The multi-query form of [`dot_many`] for callers that score the same
/// keys against several queries (exact kNN construction; the query heads of
/// one GQA group): each key row is loaded once per [`TILE`] queries and
/// scored against all of them in lockstep — the same tile kernel with the
/// roles swapped, the key row being the operand loaded once per block — so
/// a key block larger than L1 is streamed `m / TILE` times instead of `m`.
/// Each (query, key) pair applies exactly the [`dot`] reduction (f32
/// multiplication commutes), so every score is **bitwise identical** to
/// `dot(queries[j], keys[i])`; `m % TILE` trailing queries go through
/// [`dot_many`].
///
/// # Panics
/// Panics if `dim == 0`, if `queries` or `keys` is not a whole number of
/// rows, or if `out.len()` is not `m * n`.
pub fn dot_many_multi(dim: usize, queries: &[f32], keys: &[f32], out: &mut [f32]) {
    assert!(dim > 0, "vector dimensionality must be positive");
    assert_eq!(queries.len() % dim, 0, "queries must be whole rows");
    assert_eq!(keys.len() % dim, 0, "keys must be whole rows");
    let n = keys.len() / dim;
    assert_eq!(
        out.len(),
        queries.len() / dim * n,
        "out must hold one score per (query, key) pair"
    );
    if n == 0 {
        return;
    }
    let mut outs = out.chunks_exact_mut(TILE * n);
    let mut tiles = queries.chunks_exact(TILE * dim);
    for (o, q) in (&mut outs).zip(&mut tiles) {
        let qs: [&[f32]; TILE] = core::array::from_fn(|j| &q[j * dim..(j + 1) * dim]);
        let mut scores = [0.0f32; TILE];
        for (i, key) in keys.chunks_exact(dim).enumerate() {
            dot_tile(key, qs, &mut scores);
            for (j, s) in scores.iter().enumerate() {
                o[j * n + i] = *s;
            }
        }
    }
    let rest = tiles.remainder().chunks_exact(dim);
    for (o, q) in outs.into_remainder().chunks_exact_mut(n).zip(rest) {
        dot_many(q, keys, o);
    }
}

/// `y += alpha * x` (the BLAS `axpy` primitive).
///
/// Used to accumulate `a_ij * v_j` terms into an attention output vector.
/// Elementwise (no reduction, no cross-iteration dependence): the plain zip
/// loop already auto-vectorizes at full width, and measured ~6x faster at
/// d=1024 than a manually blocked form — maps get no blocking, on purpose.
#[inline]
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    debug_assert_eq!(x.len(), y.len());
    for (yi, xi) in y.iter_mut().zip(x.iter()) {
        *yi += alpha * *xi;
    }
}

/// `x *= alpha` in place. Elementwise: the plain loop auto-vectorizes (see
/// [`axpy`] on why maps are not manually blocked).
#[inline]
pub fn scale(x: &mut [f32], alpha: f32) {
    for xi in x.iter_mut() {
        *xi *= alpha;
    }
}

/// Euclidean norm `‖x‖₂`.
#[inline]
pub fn l2_norm(x: &[f32]) -> f32 {
    dot(x, x).sqrt()
}

/// Normalizes `x` to unit length in place.
///
/// Degenerate inputs are left **unchanged** rather than poisoned:
/// * the zero vector (norm 0) stays zero instead of becoming NaN,
/// * a vector containing NaN (norm NaN) is not multiplied by NaN,
/// * a vector whose norm overflows to `+inf` is not collapsed to zero.
///
/// Callers that need to detect the degenerate case can check
/// `l2_norm(x).is_finite() && l2_norm(x) > 0.0` themselves.
#[inline]
pub fn normalize(x: &mut [f32]) {
    let n = l2_norm(x);
    if n > 0.0 && n.is_finite() {
        scale(x, 1.0 / n);
    }
}

/// Squared Euclidean distance `‖a − b‖₂²` (the [`dot`] reduction with
/// `(aᵢ − bᵢ)²` as the term).
#[inline]
pub fn l2_sq(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut s = [0.0f32];
    let sq_diff = |x: f32, y: f32| {
        let d = x - y;
        d * d
    };
    reduce_rows(a, [b], sq_diff, &mut s);
    s[0]
}

/// Index of the maximum element; ties resolve to the first occurrence.
///
/// NaN entries are skipped entirely — a NaN can never win, and a NaN in an
/// earlier position cannot mask a later finite maximum (previously a leading
/// NaN poisoned the scan). Returns `None` for an empty slice and for a slice
/// containing only NaNs, so greedy decode and DIPRS scoring fail loudly on
/// fully-poisoned input instead of returning an arbitrary index.
#[inline]
pub fn argmax(x: &[f32]) -> Option<usize> {
    let mut best: Option<(usize, f32)> = None;
    for (i, &v) in x.iter().enumerate() {
        if v.is_nan() {
            continue;
        }
        match best {
            Some((_, bv)) if v <= bv => {}
            _ => best = Some((i, v)),
        }
    }
    best.map(|(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_dot(a: &[f32], b: &[f32]) -> f32 {
        a.iter().zip(b).map(|(x, y)| x * y).sum()
    }

    #[test]
    fn dot_matches_naive_for_all_tail_lengths() {
        // Exercise every remainder class of the blocked kernel: lengths from
        // empty through two full blocks (0..=2·BLOCK).
        for n in 0..=2 * BLOCK {
            let a: Vec<f32> = (0..n).map(|i| i as f32 * 0.5 - 1.0).collect();
            let b: Vec<f32> = (0..n).map(|i| (i as f32).cos()).collect();
            let got = dot(&a, &b);
            let want = naive_dot(&a, &b);
            assert!((got - want).abs() < 1e-4, "n={n}: {got} vs {want}");
        }
    }

    #[test]
    fn dot_empty_is_zero() {
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    fn dot_many_bitwise_matches_dot_per_row() {
        for d in [1usize, 3, 8, 16, 31, 32, 128] {
            let q: Vec<f32> = (0..d).map(|i| (i as f32 * 0.7).sin()).collect();
            let n = 9;
            let keys: Vec<f32> = (0..n * d).map(|i| (i as f32 * 0.3).cos() - 0.25).collect();
            let mut out = vec![0.0f32; n];
            dot_many(&q, &keys, &mut out);
            for (i, &got) in out.iter().enumerate() {
                let want = dot(&q, &keys[i * d..(i + 1) * d]);
                assert_eq!(got.to_bits(), want.to_bits(), "row {i} dim {d}");
            }
        }
    }

    #[test]
    fn dot_many_empty_rows_and_empty_out() {
        let mut out: Vec<f32> = vec![];
        dot_many(&[1.0, 2.0], &[], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "rows of dim")]
    fn dot_many_shape_mismatch_panics() {
        let mut out = vec![0.0f32; 2];
        dot_many(&[1.0, 2.0], &[1.0, 2.0, 3.0], &mut out);
    }

    #[test]
    fn axpy_accumulates() {
        let x = [1.0, 2.0, 3.0];
        let mut y = [10.0, 20.0, 30.0];
        axpy(0.5, &x, &mut y);
        assert_eq!(y, [10.5, 21.0, 31.5]);
    }

    #[test]
    fn axpy_blocked_is_bit_identical_to_naive() {
        for n in 0..=2 * BLOCK {
            let x: Vec<f32> = (0..n).map(|i| (i as f32 * 1.3).sin()).collect();
            let mut y: Vec<f32> = (0..n).map(|i| (i as f32 * 0.9).cos()).collect();
            let mut want = y.clone();
            for (yi, xi) in want.iter_mut().zip(&x) {
                *yi += 0.37 * *xi;
            }
            axpy(0.37, &x, &mut y);
            for (a, b) in y.iter().zip(&want) {
                assert_eq!(a.to_bits(), b.to_bits(), "n={n}");
            }
        }
    }

    #[test]
    fn scale_in_place() {
        let mut x = [1.0, -2.0, 4.0];
        scale(&mut x, -2.0);
        assert_eq!(x, [-2.0, 4.0, -8.0]);
    }

    #[test]
    fn l2_norm_of_axis_vectors() {
        assert_eq!(l2_norm(&[3.0, 4.0]), 5.0);
        assert_eq!(l2_norm(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn normalize_unit_length() {
        let mut x = [3.0, 4.0];
        normalize(&mut x);
        assert!((l2_norm(&x) - 1.0).abs() < 1e-6);
        // Zero vector stays zero rather than becoming NaN.
        let mut z = [0.0f32; 4];
        normalize(&mut z);
        assert_eq!(z, [0.0; 4]);
    }

    #[test]
    fn normalize_leaves_degenerate_inputs_unchanged() {
        // NaN component → NaN norm → untouched.
        let mut x = [1.0, f32::NAN, 2.0];
        normalize(&mut x);
        assert_eq!(x[0], 1.0);
        assert!(x[1].is_nan());
        assert_eq!(x[2], 2.0);
        // Norm overflows to +inf → untouched (not collapsed to zero).
        let mut big = [f32::MAX, f32::MAX];
        normalize(&mut big);
        assert_eq!(big, [f32::MAX, f32::MAX]);
    }

    #[test]
    fn l2_sq_basic() {
        assert_eq!(l2_sq(&[1.0, 2.0], &[4.0, 6.0]), 9.0 + 16.0);
    }

    #[test]
    fn l2_sq_matches_naive_for_all_tail_lengths() {
        for n in 0..=2 * BLOCK {
            let a: Vec<f32> = (0..n).map(|i| (i as f32 * 0.11).sin() * 3.0).collect();
            let b: Vec<f32> = (0..n).map(|i| (i as f32 * 0.07).cos() * 2.0).collect();
            let naive: f32 = a
                .iter()
                .zip(&b)
                .map(|(x, y)| {
                    let d = x - y;
                    d * d
                })
                .sum();
            let got = l2_sq(&a, &b);
            assert!((got - naive).abs() < 1e-4, "n={n}: {got} vs {naive}");
        }
    }

    #[test]
    fn argmax_ties_and_empty() {
        assert_eq!(argmax(&[]), None);
        assert_eq!(argmax(&[1.0]), Some(0));
        assert_eq!(argmax(&[1.0, 3.0, 3.0, 2.0]), Some(1));
        assert_eq!(argmax(&[-5.0, -1.0, -3.0]), Some(1));
    }

    #[test]
    fn argmax_skips_nan() {
        // A leading NaN must not mask the real maximum.
        assert_eq!(argmax(&[f32::NAN, 1.0, 2.0]), Some(2));
        // A NaN can never win, wherever it sits.
        assert_eq!(argmax(&[1.0, f32::NAN, 0.5]), Some(0));
        assert_eq!(argmax(&[0.5, 1.0, f32::NAN]), Some(1));
        // All-NaN input fails loudly instead of returning index 0.
        assert_eq!(argmax(&[f32::NAN, f32::NAN]), None);
        // -inf is a legitimate (losing) value, not a NaN.
        assert_eq!(argmax(&[f32::NEG_INFINITY, f32::NAN]), Some(0));
    }
}
