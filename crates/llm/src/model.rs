//! The transformer forward pass and generation driver.

use alaya_vector::ops::argmax;

use crate::backend::{AttentionBackend, StepInput};
use crate::config::ModelConfig;
use crate::rope::Rope;
use crate::tokenizer::Tokenizer;
use crate::weights::{matvec, rms_norm, silu, ModelWeights};

/// Tokens a forward pass carries through one layer before it moves on to
/// the next. Each projection runs once per chunk through
/// [`VecStore::dot_rows_multi`](alaya_vector::VecStore::dot_rows_multi),
/// which loads a weight row once per four tokens, so a weight matrix (at
/// most 512 KB on [`ModelConfig::small`]) streams from L3 once per chunk
/// instead of once per token, and a layer's K/V stays cached while the
/// chunk attends to it. Chunks of 16 to 256 tokens measured within noise
/// of each other.
pub const PREFILL_CHUNK: usize = 64;

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

/// One chunk's activations, row-major with one row per token. Allocated
/// once per forward call, sized by its largest chunk (~0.6 MB for
/// [`ModelConfig::small`] at [`PREFILL_CHUNK`]).
struct Scratch {
    /// The residual stream.
    x: Vec<f32>,
    /// RMS-normalised rows: the attention input, then the MLP input.
    h: Vec<f32>,
    q: Vec<f32>,
    k: Vec<f32>,
    v: Vec<f32>,
    /// Attention outputs, query heads concatenated.
    attn: Vec<f32>,
    /// What `wo`, then `w_down`, adds to the residual stream.
    out: Vec<f32>,
    gate: Vec<f32>,
    up: Vec<f32>,
    /// `(sin, cos)` per position and coordinate pair ([`Rope::angles`]).
    angles: Vec<(f32, f32)>,
}

impl Scratch {
    fn new(cfg: &ModelConfig, rows: usize) -> Self {
        let (hidden, kv) = (cfg.hidden_dim(), cfg.kv_dim());
        Self {
            x: vec![0.0; rows * hidden],
            h: vec![0.0; rows * hidden],
            q: vec![0.0; rows * hidden],
            k: vec![0.0; rows * kv],
            v: vec![0.0; rows * kv],
            attn: vec![0.0; rows * hidden],
            out: vec![0.0; rows * hidden],
            gate: vec![0.0; rows * cfg.ffn_dim],
            up: vec![0.0; rows * cfg.ffn_dim],
            angles: Vec::with_capacity(rows * cfg.head_dim / 2),
        }
    }
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
    /// returning next-token logits: the one-token chunk of
    /// [`Model::prefill`], so both share one layer loop. Its one row feeds
    /// the logits, so it attends at every layer and appends nowhere.
    pub fn forward_token(
        &self,
        token: u32,
        pos: usize,
        backend: &mut dyn AttentionBackend,
    ) -> Vec<f32> {
        self.forward(&[token], pos, backend)
    }

    /// Prefill phase: processes every prompt token, returning the logits of
    /// the last position (from which the first output token is sampled).
    /// `start_pos` supports continuing from a reused context prefix.
    ///
    /// The prompt runs in chunks of [`PREFILL_CHUNK`] tokens, one layer at
    /// a time: within a chunk, layer `l` attends every token, in position
    /// order, before layer `l + 1` sees the first. The last layer and the
    /// LM head run on the last token only: every other token's K/V reaches
    /// the last layer through [`AttentionBackend::append`], and its
    /// attention output, `wo` and MLP are skipped there, because nothing
    /// reads them. For `N` tokens and `L` layers the backend gets
    /// `(L − 1)·N + 1` `attend` calls and `N − 1` `append` calls. Logits
    /// and every K/V row the backend receives are bitwise those of one
    /// [`Model::forward_token`] per token.
    pub fn prefill(
        &self,
        tokens: &[u32],
        start_pos: usize,
        backend: &mut dyn AttentionBackend,
    ) -> Vec<f32> {
        assert!(!tokens.is_empty(), "prefill requires at least one token");
        self.forward(tokens, start_pos, backend)
    }

    /// Runs `tokens` (at positions from `start_pos`) through the stack in
    /// chunks of [`PREFILL_CHUNK`] and returns the last token's logits. Of
    /// the last layer, only the last token attends and runs `wo` and the
    /// MLP; the final chunk's other rows, and every row of an earlier
    /// chunk, only append their K/V there.
    fn forward(
        &self,
        tokens: &[u32],
        start_pos: usize,
        backend: &mut dyn AttentionBackend,
    ) -> Vec<f32> {
        let cfg = &self.cfg;
        let hidden = cfg.hidden_dim();
        let mut s = Scratch::new(cfg, tokens.len().min(PREFILL_CHUNK));
        let n_chunks = tokens.len().div_ceil(PREFILL_CHUNK);
        for (i, chunk) in tokens.chunks(PREFILL_CHUNK).enumerate() {
            let pos = start_pos + i * PREFILL_CHUNK;
            self.forward_chunk(chunk, pos, i + 1 == n_chunks, backend, &mut s);
        }

        // Tied LM head on the last token: logits = embedding · final_norm(x).
        let last = (tokens.len() - 1) % PREFILL_CHUNK;
        let x = &s.x[last * hidden..(last + 1) * hidden];
        let h = &mut s.h[..hidden];
        rms_norm(x, &self.weights.final_norm, cfg.norm_eps, h);
        matvec(&self.weights.embedding, h)
    }

    /// Carries one chunk (at positions from `pos`) through every layer.
    /// At the last layer every row appends its K/V, except the chunk's last
    /// row when `final_chunk` holds: it attends, runs `wo` and the MLP, and
    /// is the one row of `s.x` whose final residual the LM head may read.
    fn forward_chunk(
        &self,
        chunk: &[u32],
        pos: usize,
        final_chunk: bool,
        backend: &mut dyn AttentionBackend,
        s: &mut Scratch,
    ) {
        let cfg = &self.cfg;
        let (n, hd, eps) = (chunk.len(), cfg.head_dim, cfg.norm_eps);
        let (hidden, kv) = (cfg.hidden_dim(), cfg.kv_dim());
        let ffn = cfg.ffn_dim;
        let x = &mut s.x[..n * hidden];
        let h = &mut s.h[..n * hidden];
        let q = &mut s.q[..n * hidden];
        let k = &mut s.k[..n * kv];
        let v = &mut s.v[..n * kv];
        let attn = &mut s.attn[..n * hidden];
        let out = &mut s.out[..n * hidden];
        let gate = &mut s.gate[..n * ffn];
        let up = &mut s.up[..n * ffn];
        s.angles.clear();
        s.angles
            .extend((pos..pos + n).flat_map(|p| self.rope.angles(p)));

        for (row, &t) in x.chunks_exact_mut(hidden).zip(chunk) {
            row.copy_from_slice(self.weights.embedding.row(t as usize));
        }

        let n_layers = self.weights.layers.len();
        for (layer, lw) in self.weights.layers.iter().enumerate() {
            // Rows from `live` on attend and go on through `wo` and the
            // MLP; the rows before it only append their K/V.
            let live = match (layer + 1 == n_layers, final_chunk) {
                (false, _) => 0,
                (true, true) => n - 1,
                (true, false) => n,
            };
            // Self-attention block: project every row, then attend one
            // token at a time, in position order.
            norm_rows(x, &lw.attn_norm, eps, h);
            lw.wq.dot_rows_multi(h, q);
            lw.wk.dot_rows_multi(h, k);
            lw.wv.dot_rows_multi(h, v);
            for (t, angles) in s.angles.chunks_exact(hd / 2).enumerate() {
                let heads = |flat: &[f32], rotate: bool| -> Vec<Vec<f32>> {
                    flat.chunks_exact(hd)
                        .map(|head| {
                            let mut head = head.to_vec();
                            if rotate {
                                Rope::rotate(&mut head, angles.iter().copied());
                            }
                            head
                        })
                        .collect()
                };
                let input = StepInput {
                    queries: heads(&q[t * hidden..(t + 1) * hidden], true),
                    keys: heads(&k[t * kv..(t + 1) * kv], true),
                    values: heads(&v[t * kv..(t + 1) * kv], false),
                };
                if t < live {
                    backend.append(layer, input);
                    continue;
                }
                let head_outs = backend.attend(layer, input);
                debug_assert_eq!(head_outs.len(), cfg.n_q_heads);
                let row = &mut attn[t * hidden..(t + 1) * hidden];
                for (dst, o) in row.chunks_exact_mut(hd).zip(&head_outs) {
                    dst.copy_from_slice(o);
                }
            }
            if live == n {
                continue;
            }
            let x = &mut x[live * hidden..];
            let h = &mut h[live * hidden..];
            let out = &mut out[live * hidden..];
            let (gate, up) = (&mut gate[live * ffn..], &mut up[live * ffn..]);
            lw.wo.dot_rows_multi(&attn[live * hidden..], out);
            add_rows(x, out);

            // SwiGLU MLP block.
            norm_rows(x, &lw.mlp_norm, eps, h);
            lw.w_gate.dot_rows_multi(h, gate);
            lw.w_up.dot_rows_multi(h, up);
            for (g, u) in gate.iter_mut().zip(up.iter()) {
                *g = silu(*g) * u;
            }
            lw.w_down.dot_rows_multi(gate, out);
            add_rows(x, out);
        }
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

/// RMS-normalises each `gain.len()`-wide row of `x` into `out`.
fn norm_rows(x: &[f32], gain: &[f32], eps: f32, out: &mut [f32]) {
    let d = gain.len();
    for (row, o) in x.chunks_exact(d).zip(out.chunks_exact_mut(d)) {
        rms_norm(row, gain, eps, o);
    }
}

/// The residual add, `x += delta`, elementwise.
fn add_rows(x: &mut [f32], delta: &[f32]) {
    for (xi, d) in x.iter_mut().zip(delta) {
        *xi += d;
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
