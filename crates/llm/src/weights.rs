//! Deterministic seeded model weights and the dense kernels that apply them.

use alaya_vector::rng::{gaussian_store, seeded};
use alaya_vector::VecStore;
use rand::Rng;

use crate::config::ModelConfig;

/// Row-major matrix-vector product: `w` has `out_dim` rows of length
/// `in_dim`; returns `w · x`. One block-kernel call over the whole weight
/// matrix (bitwise the row-by-row `dot(row, x)`: the products commute).
pub fn matvec(w: &VecStore, x: &[f32]) -> Vec<f32> {
    debug_assert_eq!(w.dim(), x.len());
    let mut out = vec![0.0f32; w.len()];
    w.dot_rows(x, &mut out);
    out
}

/// RMS normalization: `out = x / rms(x) * gain`.
pub fn rms_norm(x: &[f32], gain: &[f32], eps: f32, out: &mut [f32]) {
    debug_assert_eq!(x.len(), gain.len());
    debug_assert_eq!(x.len(), out.len());
    let ms: f32 = x.iter().map(|v| v * v).sum::<f32>() / x.len() as f32;
    let inv = 1.0 / (ms + eps).sqrt();
    for ((o, v), g) in out.iter_mut().zip(x).zip(gain) {
        *o = v * inv * g;
    }
}

/// SiLU activation `x * sigmoid(x)`.
#[inline]
pub fn silu(x: f32) -> f32 {
    x / (1.0 + (-x).exp())
}

/// Weights of one transformer layer.
#[derive(Clone, Debug)]
pub struct LayerWeights {
    /// Query projection: `hidden → n_q_heads*head_dim`.
    pub wq: VecStore,
    /// Key projection: `hidden → n_kv_heads*head_dim`.
    pub wk: VecStore,
    /// Value projection: `hidden → n_kv_heads*head_dim`.
    pub wv: VecStore,
    /// Output projection: `n_q_heads*head_dim → hidden`.
    pub wo: VecStore,
    /// SwiGLU gate projection: `hidden → ffn`.
    pub w_gate: VecStore,
    /// SwiGLU up projection: `hidden → ffn`.
    pub w_up: VecStore,
    /// SwiGLU down projection: `ffn → hidden`.
    pub w_down: VecStore,
    /// Pre-attention RMSNorm gain.
    pub attn_norm: Vec<f32>,
    /// Pre-MLP RMSNorm gain.
    pub mlp_norm: Vec<f32>,
}

/// Full model weights (embedding table is tied to the LM head).
#[derive(Clone, Debug)]
pub struct ModelWeights {
    /// Token embedding table: `vocab × hidden`.
    pub embedding: VecStore,
    /// Final RMSNorm gain.
    pub final_norm: Vec<f32>,
    /// Per-layer weights.
    pub layers: Vec<LayerWeights>,
}

impl ModelWeights {
    /// Generates deterministic Gaussian weights for `cfg`, scaled
    /// `1/√in_dim` so activations stay O(1) through the stack.
    pub fn generate(cfg: &ModelConfig) -> Self {
        cfg.validate();
        let mut rng = seeded(cfg.seed);
        let hidden = cfg.hidden_dim();
        let kv_dim = cfg.kv_dim();

        let mat = |out_dim: usize, in_dim: usize, rng: &mut rand_chacha::ChaCha8Rng| {
            // gaussian_store(n_rows, dim=in_dim): each row is one output unit.
            let sigma = 1.0 / (in_dim as f32).sqrt();
            let mut s = gaussian_store(rng, out_dim, in_dim, sigma);
            debug_assert_eq!(s.len(), out_dim);
            // Tiny uniform jitter decorrelates rows beyond the Gaussian draw.
            for i in 0..s.len() {
                let row = s.row_mut(i);
                row[0] += rng.gen::<f32>() * 1e-6;
            }
            s
        };

        let layers = (0..cfg.n_layers)
            .map(|_| LayerWeights {
                wq: mat(hidden, hidden, &mut rng),
                wk: mat(kv_dim, hidden, &mut rng),
                wv: mat(kv_dim, hidden, &mut rng),
                wo: mat(hidden, hidden, &mut rng),
                w_gate: mat(cfg.ffn_dim, hidden, &mut rng),
                w_up: mat(cfg.ffn_dim, hidden, &mut rng),
                w_down: mat(hidden, cfg.ffn_dim, &mut rng),
                attn_norm: vec![1.0; hidden],
                mlp_norm: vec![1.0; hidden],
            })
            .collect();

        let embedding = gaussian_store(&mut rng, cfg.vocab_size, hidden, 1.0);

        Self {
            embedding,
            final_norm: vec![1.0; hidden],
            layers,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matvec_identity() {
        // 2x2 identity.
        let w = VecStore::from_flat(2, vec![1.0, 0.0, 0.0, 1.0]);
        assert_eq!(matvec(&w, &[3.0, 4.0]), vec![3.0, 4.0]);
    }

    #[test]
    fn matvec_equals_row_by_row_dot_bitwise_on_every_weight_matrix() {
        // Every projection shape of both configs, plus the embedding table
        // (the tied LM head is `matvec(&embedding, h)`).
        for cfg in [ModelConfig::tiny(), ModelConfig::small()] {
            let w = ModelWeights::generate(&cfg);
            let mut rng = seeded(cfg.seed ^ 0x5eed);
            let l = &w.layers[cfg.n_layers - 1];
            for m in [
                &l.wq,
                &l.wk,
                &l.wv,
                &l.wo,
                &l.w_gate,
                &l.w_up,
                &l.w_down,
                &w.embedding,
            ] {
                let x = alaya_vector::rng::gaussian_vec(&mut rng, m.dim(), 1.0);
                let want: Vec<u32> = m
                    .iter()
                    .map(|row| alaya_vector::dot(row, &x).to_bits())
                    .collect();
                let got: Vec<u32> = matvec(m, &x).iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, want, "{} x {}", m.len(), m.dim());
            }
        }
    }

    #[test]
    fn rms_norm_unit_rms() {
        let x = vec![3.0f32, -4.0];
        let g = vec![1.0f32, 1.0];
        let mut y = vec![0.0; x.len()];
        rms_norm(&x, &g, 0.0, &mut y);
        let ms: f32 = y.iter().map(|v| v * v).sum::<f32>() / y.len() as f32;
        assert!((ms - 1.0).abs() < 1e-5);
    }

    #[test]
    fn silu_properties() {
        assert_eq!(silu(0.0), 0.0);
        assert!(silu(10.0) > 9.9);
        assert!(silu(-10.0).abs() < 1e-3);
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = ModelConfig::tiny();
        let a = ModelWeights::generate(&cfg);
        let b = ModelWeights::generate(&cfg);
        assert_eq!(a.embedding.as_flat(), b.embedding.as_flat());
        assert_eq!(a.layers[0].wq.as_flat(), b.layers[0].wq.as_flat());

        let mut cfg2 = cfg.clone();
        cfg2.seed += 1;
        let c = ModelWeights::generate(&cfg2);
        assert_ne!(a.embedding.as_flat(), c.embedding.as_flat());
    }

    #[test]
    fn shapes_match_config() {
        let cfg = ModelConfig::tiny();
        let w = ModelWeights::generate(&cfg);
        assert_eq!(w.layers.len(), cfg.n_layers);
        assert_eq!(w.embedding.len(), cfg.vocab_size);
        assert_eq!(w.embedding.dim(), cfg.hidden_dim());
        let l = &w.layers[0];
        assert_eq!(l.wq.len(), cfg.hidden_dim());
        assert_eq!(l.wk.len(), cfg.kv_dim());
        assert_eq!(l.wk.dim(), cfg.hidden_dim());
        assert_eq!(l.w_down.len(), cfg.hidden_dim());
        assert_eq!(l.w_down.dim(), cfg.ffn_dim);
    }
}
