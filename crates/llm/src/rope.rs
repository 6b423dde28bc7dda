//! Rotary position embeddings (RoPE).
//!
//! RoPE rotates consecutive pairs of query/key coordinates by a
//! position-dependent angle. Beyond being the position encoding of the
//! paper's models, RoPE is load-bearing for the reproduction: it is what
//! makes decode-time query vectors *out-of-distribution* relative to the
//! stored key vectors, which is the phenomenon RoarGraph's cross-modal
//! construction (§7.2) exists to handle.

/// Precomputed RoPE frequency table for one head dimensionality.
#[derive(Clone, Debug)]
pub struct Rope {
    /// `head_dim / 2` inverse frequencies.
    inv_freq: Vec<f32>,
}

impl Rope {
    /// Builds the frequency table for `head_dim` (must be even) with base
    /// frequency `theta`.
    pub fn new(head_dim: usize, theta: f32) -> Self {
        assert!(
            head_dim.is_multiple_of(2),
            "RoPE requires an even head dimension"
        );
        let half = head_dim / 2;
        let inv_freq = (0..half)
            .map(|i| 1.0 / theta.powf(2.0 * i as f32 / head_dim as f32))
            .collect();
        Self { inv_freq }
    }

    /// Rotates `x` (one head vector) in place for sequence position `pos`.
    pub fn apply(&self, x: &mut [f32], pos: usize) {
        debug_assert_eq!(x.len(), self.head_dim());
        Self::rotate(x, self.angles(pos));
    }

    /// The `(sin, cos)` of every coordinate pair's angle at `pos`, in pair
    /// order. One position's table serves every query and key head of
    /// every layer, so a forward pass computes it once per token.
    pub fn angles(&self, pos: usize) -> impl Iterator<Item = (f32, f32)> + '_ {
        self.inv_freq
            .iter()
            .map(move |&f| (pos as f32 * f).sin_cos())
    }

    /// Rotates `x` in place by a table of [`Rope::angles`], one `(sin,
    /// cos)` per coordinate pair: bitwise [`Rope::apply`] at the table's
    /// position.
    pub fn rotate(x: &mut [f32], angles: impl IntoIterator<Item = (f32, f32)>) {
        for (pair, (sin, cos)) in x.chunks_exact_mut(2).zip(angles) {
            let (a, b) = (pair[0], pair[1]);
            pair[0] = a * cos - b * sin;
            pair[1] = a * sin + b * cos;
        }
    }

    /// Head dimensionality this table serves.
    pub fn head_dim(&self) -> usize {
        self.inv_freq.len() * 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alaya_vector::{dot, l2_norm};

    #[test]
    fn position_zero_is_identity() {
        let rope = Rope::new(8, 10_000.0);
        let mut x = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0];
        let orig = x;
        rope.apply(&mut x, 0);
        assert_eq!(x, orig);
    }

    #[test]
    fn rotation_preserves_norm() {
        let rope = Rope::new(16, 10_000.0);
        let mut x: Vec<f32> = (0..16).map(|i| (i as f32 * 0.7).sin()).collect();
        let n0 = l2_norm(&x);
        rope.apply(&mut x, 1234);
        assert!((l2_norm(&x) - n0).abs() < 1e-4);
    }

    #[test]
    fn inner_product_depends_only_on_relative_position() {
        // The defining property: <R_p q, R_s k> depends on p - s only.
        let rope = Rope::new(8, 10_000.0);
        let q0: Vec<f32> = vec![0.3, -1.2, 0.5, 0.8, -0.1, 0.9, 1.1, -0.4];
        let k0: Vec<f32> = vec![0.7, 0.2, -0.6, 1.0, 0.4, -0.9, 0.1, 0.3];

        let ip_at = |p: usize, s: usize| {
            let mut q = q0.clone();
            let mut k = k0.clone();
            rope.apply(&mut q, p);
            rope.apply(&mut k, s);
            dot(&q, &k)
        };

        let a = ip_at(10, 3); // delta 7
        let b = ip_at(107, 100); // delta 7
        assert!((a - b).abs() < 1e-3, "{a} vs {b}");

        let c = ip_at(10, 9); // different delta
        assert!((a - c).abs() > 1e-4);
    }

    #[test]
    #[should_panic(expected = "even head dimension")]
    fn odd_dim_rejected() {
        Rope::new(7, 10_000.0);
    }
}
