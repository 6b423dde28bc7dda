//! The token-major forward pass: one token through every layer before the
//! next token, with a fresh `matvec` per projection and a `Rope::apply`
//! per head. `Model` runs tokens in chunks, one layer at a time; this is
//! the loop it must reproduce bit for bit, in logits and in every K/V row
//! and query it hands the backend.

use alaya_llm::weights::{matvec, rms_norm, silu, ModelWeights};
use alaya_llm::{AttentionBackend, ModelConfig, Rope, StepInput};

pub struct TokenMajor {
    cfg: ModelConfig,
    weights: ModelWeights,
    rope: Rope,
}

fn norm(x: &[f32], gain: &[f32], eps: f32) -> Vec<f32> {
    let mut out = vec![0.0; x.len()];
    rms_norm(x, gain, eps, &mut out);
    out
}

impl TokenMajor {
    pub fn new(cfg: &ModelConfig) -> Self {
        Self {
            cfg: cfg.clone(),
            weights: ModelWeights::generate(cfg),
            rope: Rope::new(cfg.head_dim, cfg.rope_theta),
        }
    }

    /// One token at position `pos` through every layer; its logits.
    pub fn forward_token(
        &self,
        token: u32,
        pos: usize,
        backend: &mut dyn AttentionBackend,
    ) -> Vec<f32> {
        let cfg = &self.cfg;
        let hd = cfg.head_dim;
        let mut x = self.weights.embedding.row(token as usize).to_vec();
        for (layer, lw) in self.weights.layers.iter().enumerate() {
            let h = norm(&x, &lw.attn_norm, cfg.norm_eps);
            let heads = |flat: Vec<f32>, rotate: bool| -> Vec<Vec<f32>> {
                flat.chunks_exact(hd)
                    .map(|c| {
                        let mut c = c.to_vec();
                        if rotate {
                            self.rope.apply(&mut c, pos);
                        }
                        c
                    })
                    .collect()
            };
            let input = StepInput {
                queries: heads(matvec(&lw.wq, &h), true),
                keys: heads(matvec(&lw.wk, &h), true),
                values: heads(matvec(&lw.wv, &h), false),
            };
            let concat: Vec<f32> = backend.attend(layer, input).concat();
            for (xi, a) in x.iter_mut().zip(&matvec(&lw.wo, &concat)) {
                *xi += a;
            }
            let h2 = norm(&x, &lw.mlp_norm, cfg.norm_eps);
            let gate = matvec(&lw.w_gate, &h2);
            let up = matvec(&lw.w_up, &h2);
            let inner: Vec<f32> = gate.iter().zip(&up).map(|(g, u)| silu(*g) * u).collect();
            for (xi, m) in x.iter_mut().zip(&matvec(&lw.w_down, &inner)) {
                *xi += m;
            }
        }
        let h = norm(&x, &self.weights.final_norm, cfg.norm_eps);
        matvec(&self.weights.embedding, &h)
    }

    /// `tokens` from `start_pos`, one `forward_token` each; the last
    /// token's logits.
    pub fn prefill(
        &self,
        tokens: &[u32],
        start_pos: usize,
        backend: &mut dyn AttentionBackend,
    ) -> Vec<f32> {
        let mut logits = Vec::new();
        for (i, &t) in tokens.iter().enumerate() {
            logits = self.forward_token(t, start_pos + i, backend);
        }
        logits
    }
}
