//! The transformer forward pass and generation driver.

use alaya_vector::ops::argmax;

use crate::backend::{AttentionBackend, StepInput};
use crate::config::ModelConfig;
use crate::rope::Rope;
use crate::tokenizer::Tokenizer;
use crate::weights::{matvec, rms_norm, silu, ModelWeights};

/// A decoder-only transformer with deterministic seeded weights.
///
/// The model is stateless across tokens: all sequence state lives in the
/// [`AttentionBackend`], mirroring how the paper's modified
/// `LlamaAttention.forward` delegates both cache updates and attention to
/// AlayaDB (Figure 4b).
pub struct Model {
    cfg: ModelConfig,
    weights: ModelWeights,
    rope: Rope,
}

impl Model {
    /// Builds the model for `cfg`, generating seeded weights.
    pub fn new(cfg: ModelConfig) -> Self {
        let weights = ModelWeights::generate(&cfg);
        let rope = Rope::new(cfg.head_dim, cfg.rope_theta);
        Self { cfg, weights, rope }
    }

    /// The model configuration.
    pub fn config(&self) -> &ModelConfig {
        &self.cfg
    }

    /// Runs one token through the stack at sequence position `pos`,
    /// returning next-token logits.
    pub fn forward_token(
        &self,
        token: u32,
        pos: usize,
        backend: &mut dyn AttentionBackend,
    ) -> Vec<f32> {
        let cfg = &self.cfg;
        let hd = cfg.head_dim;
        let mut x = self.weights.embedding.row(token as usize).to_vec();

        for layer in 0..cfg.n_layers {
            let lw = &self.weights.layers[layer];

            // Self-attention block.
            let h = rms_norm(&x, &lw.attn_norm, cfg.norm_eps);
            let q_flat = matvec(&lw.wq, &h);
            let k_flat = matvec(&lw.wk, &h);
            let v_flat = matvec(&lw.wv, &h);

            let mut queries: Vec<Vec<f32>> = q_flat.chunks_exact(hd).map(|c| c.to_vec()).collect();
            let mut keys: Vec<Vec<f32>> = k_flat.chunks_exact(hd).map(|c| c.to_vec()).collect();
            let values: Vec<Vec<f32>> = v_flat.chunks_exact(hd).map(|c| c.to_vec()).collect();
            for q in queries.iter_mut() {
                self.rope.apply(q, pos);
            }
            for k in keys.iter_mut() {
                self.rope.apply(k, pos);
            }

            let head_outs = backend.attend(
                layer,
                StepInput {
                    queries,
                    keys,
                    values,
                },
            );
            debug_assert_eq!(head_outs.len(), cfg.n_q_heads);

            let mut concat = Vec::with_capacity(cfg.hidden_dim());
            for o in &head_outs {
                concat.extend_from_slice(o);
            }
            let attn_out = matvec(&lw.wo, &concat);
            for (xi, a) in x.iter_mut().zip(&attn_out) {
                *xi += a;
            }

            // SwiGLU MLP block.
            let h2 = rms_norm(&x, &lw.mlp_norm, cfg.norm_eps);
            let gate = matvec(&lw.w_gate, &h2);
            let up = matvec(&lw.w_up, &h2);
            let inner: Vec<f32> = gate.iter().zip(&up).map(|(g, u)| silu(*g) * u).collect();
            let mlp_out = matvec(&lw.w_down, &inner);
            for (xi, m) in x.iter_mut().zip(&mlp_out) {
                *xi += m;
            }
        }

        // Tied LM head: logits = embedding · final_norm(x).
        let h = rms_norm(&x, &self.weights.final_norm, cfg.norm_eps);
        matvec(&self.weights.embedding, &h)
    }

    /// Prefill phase: processes every prompt token, returning the logits of
    /// the last position (from which the first output token is sampled).
    /// `start_pos` supports continuing from a reused context prefix.
    pub fn prefill(
        &self,
        tokens: &[u32],
        start_pos: usize,
        backend: &mut dyn AttentionBackend,
    ) -> Vec<f32> {
        assert!(!tokens.is_empty(), "prefill requires at least one token");
        let mut logits = Vec::new();
        for (i, &t) in tokens.iter().enumerate() {
            logits = self.forward_token(t, start_pos + i, backend);
        }
        logits
    }

    /// Greedy decode phase: generates up to `max_new` tokens starting from
    /// `last_logits`, stopping at `<eot>`.
    pub fn decode(
        &self,
        last_logits: Vec<f32>,
        start_pos: usize,
        max_new: usize,
        backend: &mut dyn AttentionBackend,
    ) -> Vec<u32> {
        let mut out = Vec::new();
        let mut logits = last_logits;
        for i in 0..max_new {
            let next = argmax(&logits).expect("non-empty logits") as u32;
            out.push(next);
            if next == Tokenizer::EOT {
                break;
            }
            if i + 1 < max_new {
                logits = self.forward_token(next, start_pos + i, backend);
            }
        }
        out
    }

    /// End-to-end generation: prefill the prompt, then greedy-decode.
    pub fn generate(
        &self,
        prompt: &[u32],
        max_new: usize,
        backend: &mut dyn AttentionBackend,
    ) -> Vec<u32> {
        let start = backend.seq_len(0);
        let logits = self.prefill(prompt, start, backend);
        self.decode(logits, start + prompt.len(), max_new, backend)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::FullKvBackend;

    #[test]
    fn forward_produces_finite_logits() {
        let cfg = ModelConfig::tiny();
        let model = Model::new(cfg.clone());
        let mut backend = FullKvBackend::new(&cfg);
        let logits = model.forward_token(42, 0, &mut backend);
        assert_eq!(logits.len(), cfg.vocab_size);
        assert!(logits.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = ModelConfig::tiny();
        let model = Model::new(cfg.clone());
        let prompt: Vec<u32> = Tokenizer::new().encode_prompt("hello world");

        let mut b1 = FullKvBackend::new(&cfg);
        let out1 = model.generate(&prompt, 8, &mut b1);
        let mut b2 = FullKvBackend::new(&cfg);
        let out2 = model.generate(&prompt, 8, &mut b2);
        assert_eq!(out1, out2);
        assert_eq!(out1.len(), 8.min(out1.len()));
        assert!(!out1.is_empty());
    }

    #[test]
    fn prefill_advances_cache_by_prompt_length() {
        let cfg = ModelConfig::tiny();
        let model = Model::new(cfg.clone());
        let mut backend = FullKvBackend::new(&cfg);
        let prompt = [1u32, 2, 3, 4, 5];
        model.prefill(&prompt, 0, &mut backend);
        for layer in 0..cfg.n_layers {
            assert_eq!(backend.seq_len(layer), prompt.len());
        }
    }

    #[test]
    fn different_prompts_diverge() {
        let cfg = ModelConfig::tiny();
        let model = Model::new(cfg.clone());
        let mut b1 = FullKvBackend::new(&cfg);
        let l1 = model.prefill(&[10, 20, 30], 0, &mut b1);
        let mut b2 = FullKvBackend::new(&cfg);
        let l2 = model.prefill(&[10, 20, 31], 0, &mut b2);
        assert_ne!(l1, l2);
    }

    #[test]
    fn context_affects_later_logits() {
        // The same token at the same position must see different logits when
        // the cached context differs — i.e. attention actually reads the cache.
        let cfg = ModelConfig::tiny();
        let model = Model::new(cfg.clone());

        let mut b1 = FullKvBackend::new(&cfg);
        model.prefill(&[7, 8], 0, &mut b1);
        let l1 = model.forward_token(9, 2, &mut b1);

        let mut b2 = FullKvBackend::new(&cfg);
        model.prefill(&[7, 200], 0, &mut b2);
        let l2 = model.forward_token(9, 2, &mut b2);
        assert_ne!(l1, l2);
    }
}
