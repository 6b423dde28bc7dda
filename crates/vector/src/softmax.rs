//! Numerically-stable softmax and the streaming softmax accumulator.
//!
//! [`softmax_in_place`] is the batch kernel: it fuses the max / exp / sum
//! phases into vectorizable sweeps built on a polynomial `exp` so the whole
//! distribution is computed at SIMD width (the previous implementation spent
//! ~90% of its time in scalar `libm` `expf` calls). [`OnlineSoftmax`]
//! implements the FlashAttention-style online softmax: a running
//! `(max, sum, weighted-output)` triple that absorbs attention scores one
//! partition at a time. Absorbing partitions one after another into one
//! accumulator is what the paper's data-centric attention engine (§7.2)
//! relies on: partial attention over the GPU-cached window and over the
//! CPU-retrieved tokens lands in the same accumulator, whose output is the
//! one full softmax attention would give over the union of the token sets.
//!
//! # Exactness contract
//!
//! [`OnlineSoftmax::push_rows`] and [`OnlineSoftmax::push_ids`] — the calls
//! under every attention path: the executor behind every served plan and
//! `Session::attention_sequential`, and the model's prefill — absorb their
//! rows one tile of up to 64 scores at a time. For each tile, in this
//! order:
//!
//! 1. the raw scores are multiplied by the logit scale and their maximum is
//!    taken lane-wise (8 lanes, lane maxima folded pairwise, then the
//!    `len % 8` tail); the running max is therefore exact, the same value a
//!    row-at-a-time chain would reach;
//! 2. only if that maximum beats the running max are `sum` and `acc`
//!    rescaled, once, by the scalar `libm` `exp(old − new)`;
//! 3. the scores become weights `exp_approx(z − max)` ([`exp_approx`]) and
//!    their lane sum (the `ops::dot` lane fold) is added to `sum`;
//! 4. `acc` gains `Σ wⱼ·vⱼ` in row order — element `k` sees
//!    `(acc[k] + w₀·v₀[k]) + w₁·v₁[k] + …`, held in registers across the
//!    tile at `d` ∈ {16, 32} (the model's head dims) and per-row `axpy`
//!    otherwise (same bits).
//!
//! For a given sequence of calls the bits are therefore fixed, whatever the
//! thread or ISA, and `Session::attention_sequential` stays the bitwise
//! oracle of the batched scheduler because both make the same calls.
//! `crates/vector/tests/softmax_bits.rs` spells the association out as a
//! scalar reference and pins it bit for bit. Against the row-at-a-time
//! [`OnlineSoftmax::push`] (scalar `libm` exp, a rescale per new max) the
//! output moves by ~1e-7 relative; against an exact f64 softmax-weighted sum
//! it stays within the bound `tests/prop_vector.rs` names `TILE_REL_TOL`.
//! Single-row `push` is the only path left whose weights use the scalar
//! exponential.
//!
//! `softmax_in_place` trades exact `libm` rounding for the same fused
//! vectorized pipeline:
//!
//! * the polynomial [`exp_approx`] differs from `f32::exp` by at most
//!   ~3e-7 relative error over the post-subtraction range `x − max ≤ 0`,
//! * the lane-structured sum re-associates the reduction (see
//!   `crate::ops` module docs).
//!
//! The resulting per-element error of `softmax_in_place` against an exact
//! f64 reference is bounded by [`SOFTMAX_REL_TOL`], which is asserted by
//! unit tests here and property tests in `tests/prop_vector.rs`. NaN inputs
//! are treated as `-inf` (numerically zero weight) instead of poisoning the
//! whole distribution; non-finite maxima fall back to the exact scalar path
//! so `±inf` edge cases keep their historical behavior.

use crate::ops::axpy;
use crate::store::VecStore;

/// Documented per-element relative error bound of [`softmax_in_place`]
/// against an exact f64 softmax (polynomial exp + re-associated sum).
pub const SOFTMAX_REL_TOL: f32 = 1e-5;

const LANES: usize = 8;
const EXP_LO: f32 = -87.0;
const EXP_HI: f32 = 88.0;

/// Branch-free polynomial `eˣ` (Cephes-style degree-5 minimax on the
/// reduced range, two-step Cody–Waite argument reduction).
///
/// Total function: inputs are clamped to `[-87, 88]` — NaN maps to the low
/// clamp (result ≈ 0) rather than propagating, and there is no data-
/// dependent branch, so LLVM vectorizes loops over it at full SIMD width.
/// Maximum relative error vs `f32::exp` is ~3e-7 on the clamped range.
#[inline(always)]
// Not `clamp`: `f32::clamp` propagates NaN, while `.max().min()` replaces
// it with the low bound (exp_approx(NaN) ≈ 0, which softmax relies on).
#[allow(clippy::manual_clamp)]
pub fn exp_approx(x: f32) -> f32 {
    const LOG2E: f32 = core::f32::consts::LOG2_E;
    const LN2_HI: f32 = 0.693_359_4;
    const LN2_LO: f32 = -2.121_944_4e-4;
    // 1.5·2²³: adding then subtracting rounds to the nearest integer
    // without a libm call, for arguments safely inside ±2²².
    const MAGIC: f32 = 12_582_912.0;

    // `.max` then `.min` (not `clamp`) so NaN is replaced, not kept.
    let v = x.max(EXP_LO).min(EXP_HI);
    let t = v * LOG2E + MAGIC;
    let nf = t - MAGIC;
    let r = (v - nf * LN2_HI) - nf * LN2_LO;
    let p = 1.987_569_2e-4f32;
    let p = p * r + 1.398_199_9e-3;
    let p = p * r + 8.333_452e-3;
    let p = p * r + 4.166_579_6e-2;
    let p = p * r + 1.666_666_5e-1;
    let p = p * r + 5.000_000_4e-1;
    let poly = p * r * r + r + 1.0;
    // 2ⁿ by exponent-field construction. `t` is exactly `MAGIC + n` with
    // `n ∈ [-126, 127]` after the clamp, so the mantissa bits of `t` hold
    // `2²² + n`; subtracting `MAGIC`'s bit pattern recovers `n` and shifting
    // it into the exponent field adds it to the bias. Pure integer ops on
    // the float's bits — unlike a saturating `as i32` cast, this keeps the
    // surrounding loop auto-vectorizable (measured 2x on the exp pass).
    let n_bits = t.to_bits().wrapping_sub(MAGIC.to_bits());
    let scale = f32::from_bits(n_bits.wrapping_shl(23).wrapping_add(1.0f32.to_bits()));
    poly * scale
}

/// Lane-parallel maximum. NaN entries are skipped (`f32::max` semantics),
/// matching the historical fold.
#[inline(never)]
fn max_lanes(x: &[f32]) -> f32 {
    let mut mx = [f32::NEG_INFINITY; LANES];
    let mut c = x.chunks_exact(LANES);
    for ch in &mut c {
        for l in 0..LANES {
            mx[l] = mx[l].max(ch[l]);
        }
    }
    let mut m = (mx[0].max(mx[1])).max(mx[2].max(mx[3]));
    m = m.max((mx[4].max(mx[5])).max(mx[6].max(mx[7])));
    for &v in c.remainder() {
        m = m.max(v);
    }
    m
}

/// `x[i] = exp_approx(x[i] - m)` over the whole slice, at SIMD width.
#[inline(never)]
fn exp_shift(x: &mut [f32], m: f32) {
    for v in x.iter_mut() {
        *v = exp_approx(*v - m);
    }
}

/// Lane-structured sum (same fixed association as `ops::dot`'s lane fold).
#[inline(never)]
fn sum_lanes(x: &[f32]) -> f32 {
    let mut sums = [0.0f32; LANES];
    let mut c = x.chunks_exact(LANES);
    for ch in &mut c {
        for l in 0..LANES {
            sums[l] += ch[l];
        }
    }
    let mut s =
        ((sums[0] + sums[1]) + (sums[2] + sums[3])) + ((sums[4] + sums[5]) + (sums[6] + sums[7]));
    for v in c.remainder() {
        s += v;
    }
    s
}

#[inline(never)]
fn scale_lanes(x: &mut [f32], a: f32) {
    for v in x.iter_mut() {
        *v *= a;
    }
}

/// `acc += Σⱼ weights[j] · rows[j]`, one row after another: element `k`
/// becomes `(…(acc[k] + w₀·v₀[k]) + w₁·v₁[k]) + …`, exactly per-row
/// [`axpy`]. At `dim` 16 and 32, the model's head dims, the accumulator is
/// copied into a fixed-size array so it stays in registers across the whole
/// tile instead of making a load–add–store round trip through memory per
/// row; any other `dim` runs the per-row `axpy` (same bits).
#[inline(never)]
fn add_weighted<'v>(acc: &mut [f32], weights: &[f32], rows: impl Iterator<Item = &'v [f32]>) {
    match acc.len() {
        16 => add_weighted_fixed::<16>(acc, weights, rows),
        32 => add_weighted_fixed::<32>(acc, weights, rows),
        _ => {
            for (&w, value) in weights.iter().zip(rows) {
                axpy(w, value, acc);
            }
        }
    }
}

#[inline(always)]
fn add_weighted_fixed<'v, const D: usize>(
    acc: &mut [f32],
    weights: &[f32],
    rows: impl Iterator<Item = &'v [f32]>,
) {
    let mut a: [f32; D] = acc.try_into().expect("dispatched on acc.len()");
    for (&w, value) in weights.iter().zip(rows) {
        let v: &[f32; D] = value
            .try_into()
            .expect("value rows have the accumulator's dim");
        a = core::array::from_fn(|k| a[k] + w * v[k]);
    }
    acc.copy_from_slice(&a);
}

/// In-place numerically-stable softmax. Empty input is a no-op.
///
/// Fused vectorized pipeline (lane-max → polynomial exp → lane-sum →
/// normalize); per-element accuracy vs an exact f64 softmax is bounded by
/// [`SOFTMAX_REL_TOL`] (see module docs for where the rounding comes from).
/// NaN entries receive numerically zero weight; if the running maximum is
/// non-finite (all `-inf`, or a `+inf` entry) the exact scalar path runs
/// instead, preserving the historical IEEE edge-case behavior.
pub fn softmax_in_place(x: &mut [f32]) {
    if x.is_empty() {
        return;
    }
    let m = max_lanes(x);
    if !m.is_finite() {
        // All -inf (m = -inf) or a +inf entry: keep libm semantics.
        let mut sum = 0.0f32;
        for xi in x.iter_mut() {
            *xi = (*xi - m).exp();
            sum += *xi;
        }
        if sum > 0.0 {
            scale_lanes(x, 1.0 / sum);
        }
        return;
    }
    exp_shift(x, m);
    let sum = sum_lanes(x);
    if sum > 0.0 {
        scale_lanes(x, 1.0 / sum);
    }
}

/// Keys scored and absorbed per tile in [`OnlineSoftmax::push_rows`] and
/// [`OnlineSoftmax::push_ids`]: big enough to amortize the block's one max
/// and one rescale, small enough that the score buffer lives on the stack.
const SCORE_BLOCK: usize = 64;

/// Streaming softmax-weighted vector accumulator.
///
/// Maintains the invariant that after absorbing scores `z_1..z_n` with value
/// vectors `v_1..v_n`, [`OnlineSoftmax::output`] equals
/// `Σ softmax(z)_i · v_i` up to f32 rounding, regardless of how the scores
/// were partitioned across [`OnlineSoftmax::push`] and the tiled
/// [`OnlineSoftmax::push_rows`]/[`OnlineSoftmax::push_ids`] calls.
///
/// For a given sequence of calls the bits are fixed (see the module docs for
/// the tile's association), so sequential and scheduler-batched attention,
/// which make the same calls, produce identical bits. The running maximum is
/// exact whichever way scores arrive.
///
/// Edge scores: a NaN or `-inf` score gets zero weight — `push` skips it, a
/// tile gives it `exp_approx`'s floor (≈ 1e-38, numerically zero) — and a
/// call whose every score is NaN or `-inf` absorbs nothing, so an empty
/// accumulator stays [`OnlineSoftmax::is_empty`] and outputs zeros. A `+inf`
/// score (reachable only by overflow) makes the output NaN, as IEEE
/// arithmetic on `exp(inf − inf)` would.
#[derive(Clone, Debug)]
pub struct OnlineSoftmax {
    /// Running maximum of absorbed scores.
    max: f32,
    /// Running `Σ exp(z_i − max)`.
    sum: f32,
    /// Running `Σ exp(z_i − max) · v_i`.
    acc: Vec<f32>,
}

impl OnlineSoftmax {
    /// Creates an empty accumulator producing `dim`-dimensional outputs.
    pub fn new(dim: usize) -> Self {
        Self {
            max: f32::NEG_INFINITY,
            sum: 0.0,
            acc: vec![0.0; dim],
        }
    }

    /// Output dimensionality.
    pub fn dim(&self) -> usize {
        self.acc.len()
    }

    /// Whether any score has been absorbed.
    pub fn is_empty(&self) -> bool {
        self.sum == 0.0
    }

    /// Absorbs one `(score, value)` pair with the scalar `libm` exponential.
    pub fn push(&mut self, score: f32, value: &[f32]) {
        debug_assert_eq!(value.len(), self.acc.len());
        // NaN and -inf carry zero weight (and would otherwise make
        // `exp(-inf - -inf)` = NaN on an empty accumulator).
        if score.is_nan() || score == f32::NEG_INFINITY {
            return;
        }
        if score > self.max {
            self.rescale(score);
        }
        let w = (score - self.max).exp();
        self.sum += w;
        axpy(w, value, &mut self.acc);
    }

    /// Moves the running maximum up to `new_max`, rescaling `sum` and `acc`
    /// by `exp(old − new)` (by 0 when nothing was absorbed yet).
    fn rescale(&mut self, new_max: f32) {
        let correction = if self.max == f32::NEG_INFINITY {
            0.0
        } else {
            (self.max - new_max).exp()
        };
        self.sum *= correction;
        for a in self.acc.iter_mut() {
            *a *= correction;
        }
        self.max = new_max;
    }

    /// Absorbs one tile: `scores[j]` is the raw `q · key_j` of the `j`-th
    /// value row of `rows`. Scale and lane max, at most one rescale, `exp_approx`
    /// weights summed lane-wise, then the weighted row sum in row order (the
    /// module docs spell out the association). `scores` is overwritten with
    /// the weights.
    fn absorb<'v>(
        &mut self,
        scores: &mut [f32],
        scale: f32,
        rows: impl Iterator<Item = &'v [f32]>,
    ) {
        scale_lanes(scores, scale);
        let block_max = max_lanes(scores);
        if block_max == f32::NEG_INFINITY {
            // Every score is -inf or NaN: the whole tile has zero weight.
            return;
        }
        if block_max > self.max {
            self.rescale(block_max);
        }
        if self.max == f32::INFINITY {
            // An overflowed score: its weight is `exp(inf − inf)`, NaN.
            self.sum = f32::NAN;
            return;
        }
        exp_shift(scores, self.max);
        self.sum += sum_lanes(scores);
        add_weighted(&mut self.acc, scores, rows);
    }

    /// Absorbs rows `rows` of one head in order, each with score
    /// `scale · (q · key)`, one tile of 64 rows at a time: each tile is
    /// scored by one [`VecStore::dot_block`] call (bitwise per-row
    /// `dot_row`) and absorbed with one max, at most one rescale, a
    /// vectorized exp and a register-held weighted sum. The tiles start at
    /// `rows.start`, so the bits depend on how a caller splits its rows.
    pub fn push_rows(
        &mut self,
        q: &[f32],
        keys: &VecStore,
        values: &VecStore,
        scale: f32,
        rows: std::ops::Range<usize>,
    ) {
        let mut scores = [0.0f32; SCORE_BLOCK];
        let d = values.dim();
        let mut i = rows.start;
        while i < rows.end {
            let scores = &mut scores[..SCORE_BLOCK.min(rows.end - i)];
            keys.dot_block(q, i, scores);
            let slab = &values.as_flat()[i * d..(i + scores.len()) * d];
            self.absorb(scores, scale, slab.chunks_exact(d));
            i += scores.len();
        }
    }

    /// [`OnlineSoftmax::push_rows`] for a non-contiguous id gather, in `ids`
    /// order, one tile per 64 ids (scored by [`VecStore::dot_ids`]).
    /// Repeated ids are absorbed once per occurrence.
    pub fn push_ids(
        &mut self,
        q: &[f32],
        keys: &VecStore,
        values: &VecStore,
        scale: f32,
        ids: &[u32],
    ) {
        let mut scores = [0.0f32; SCORE_BLOCK];
        for chunk in ids.chunks(SCORE_BLOCK) {
            let scores = &mut scores[..chunk.len()];
            keys.dot_ids(q, chunk, scores);
            let rows = chunk.iter().map(|&id| values.row(id as usize));
            self.absorb(scores, scale, rows);
        }
    }

    /// The softmax-weighted output `Σ softmax(z)_i · v_i`.
    ///
    /// Returns the zero vector if nothing has been absorbed.
    pub fn output(&self) -> Vec<f32> {
        if self.sum == 0.0 {
            return vec![0.0; self.acc.len()];
        }
        self.acc.iter().map(|&a| a / self.sum).collect()
    }

    /// The running maximum score (`-inf` when empty). Exposed so the window
    /// cache can seed DIPRS with the best-so-far inner product (§7.1).
    pub fn max_score(&self) -> f32 {
        self.max
    }

    /// The denominator `Σ exp(z_i − max)`.
    pub fn sum(&self) -> f32 {
        self.sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference(scores: &[f32], values: &[&[f32]]) -> Vec<f32> {
        let mut z = scores.to_vec();
        softmax_in_place(&mut z);
        let dim = values[0].len();
        let mut out = vec![0.0f32; dim];
        for (w, v) in z.iter().zip(values) {
            axpy(*w, v, &mut out);
        }
        out
    }

    fn assert_close(a: &[f32], b: &[f32], tol: f32) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < tol, "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn softmax_normalizes() {
        let mut x = vec![1.0, 2.0, 3.0];
        softmax_in_place(&mut x);
        let s: f32 = x.iter().sum();
        assert!((s - 1.0).abs() < 1e-6);
        assert!(x[2] > x[1] && x[1] > x[0]);
    }

    #[test]
    fn softmax_handles_large_scores_without_overflow() {
        let mut x = vec![1000.0, 1001.0];
        softmax_in_place(&mut x);
        assert!(x.iter().all(|v| v.is_finite()));
        assert!((x.iter().sum::<f32>() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn softmax_empty_noop() {
        let mut x: Vec<f32> = vec![];
        softmax_in_place(&mut x);
        assert!(x.is_empty());
    }

    #[test]
    fn exp_approx_within_documented_tolerance() {
        // Sweep the clamped range, denser near zero where softmax operates.
        let mut worst = 0.0f32;
        let mut x = -87.0f32;
        while x <= 88.0 {
            let got = exp_approx(x);
            let want = x.exp();
            let rel = ((got - want) / want).abs();
            worst = worst.max(rel);
            x += 0.037;
        }
        assert!(worst < 3e-7, "exp_approx rel err {worst}");
        // Total function: no NaN out, even for NaN / out-of-range input.
        assert!(exp_approx(f32::NAN).is_finite());
        assert_eq!(exp_approx(-1000.0), exp_approx(EXP_LO));
        assert!(exp_approx(f32::NEG_INFINITY) < 1e-30);
    }

    #[test]
    fn softmax_matches_f64_reference_within_tolerance() {
        // The documented SOFTMAX_REL_TOL bound, checked against an exact
        // f64 softmax across sizes covering all lane-tail classes.
        for n in [1usize, 7, 8, 9, 16, 33, 128, 640] {
            let x: Vec<f32> = (0..n)
                .map(|i| ((i as f32 * 0.83).sin() * 6.0) - 1.0)
                .collect();
            let mut got = x.clone();
            softmax_in_place(&mut got);
            let m = x.iter().cloned().fold(f32::NEG_INFINITY, f32::max) as f64;
            let exps: Vec<f64> = x.iter().map(|&v| ((v as f64) - m).exp()).collect();
            let sum: f64 = exps.iter().sum();
            for (i, (&g, e)) in got.iter().zip(&exps).enumerate() {
                let want = (e / sum) as f32;
                let rel = ((g - want) / want.max(1e-30)).abs();
                assert!(
                    rel < SOFTMAX_REL_TOL,
                    "n={n} i={i}: {g} vs {want} rel {rel}"
                );
            }
        }
    }

    #[test]
    fn softmax_nan_entries_get_zero_weight() {
        let mut x = vec![1.0, f32::NAN, 3.0, f32::NAN];
        softmax_in_place(&mut x);
        // Finite entries still form a (near-)normalized distribution…
        assert!((x.iter().sum::<f32>() - 1.0).abs() < 1e-5);
        // …and the NaN slots got (numerically) zero weight, not NaN.
        assert!(x[1] < 1e-30 && x[3] < 1e-30);
        assert!(x[2] > x[0]);
    }

    #[test]
    fn softmax_all_neg_inf_keeps_ieee_behavior() {
        // m = -inf → exact scalar path: exp(-inf − -inf) = NaN, unnormalized.
        let mut x = vec![f32::NEG_INFINITY, f32::NEG_INFINITY];
        softmax_in_place(&mut x);
        assert!(x.iter().all(|v| v.is_nan()));
    }

    #[test]
    fn online_matches_reference_single_pass() {
        let scores = [0.3f32, -0.5, 1.2, 0.0];
        let values: Vec<Vec<f32>> = vec![
            vec![1.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 1.0],
            vec![-1.0, 2.0],
        ];
        let refs: Vec<&[f32]> = values.iter().map(|v| v.as_slice()).collect();
        let want = reference(&scores, &refs);

        let mut os = OnlineSoftmax::new(2);
        for (s, v) in scores.iter().zip(&values) {
            os.push(*s, v);
        }
        assert_close(&os.output(), &want, 1e-5);
    }

    #[test]
    fn empty_output_is_zero() {
        let os = OnlineSoftmax::new(3);
        assert_eq!(os.output(), vec![0.0; 3]);
        assert!(os.is_empty());
        assert_eq!(os.max_score(), f32::NEG_INFINITY);
    }
}
