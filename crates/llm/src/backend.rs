//! The attention-backend seam between the inference engine and the
//! KV-cache/attention service.
//!
//! The paper's key architectural move (Figure 2d) is to cut the inference
//! engine *here*: the engine computes Q/K/V projections and hands them to a
//! backend that owns both the KV cache and the attention computation, getting
//! only the attention outputs back (never the cache contents). This trait is
//! that interface: [`AttentionBackend::attend`] absorbs a step and attends
//! it, [`AttentionBackend::append`] only absorbs it, for the prompt rows
//! whose attention output nothing reads. [`FullKvBackend`] is the
//! coupled-architecture reference (exact full attention, cache held
//! in-process); `alaya_core::Session` implements the same trait by routing
//! each call through AlayaDB's query processing engine.

use alaya_vector::softmax::OnlineSoftmax;

use crate::config::ModelConfig;
use crate::kv::KvCache;

/// One decode step's attention inputs for a single layer. RoPE has already
/// been applied to queries and keys; scores are scaled by `1/√head_dim`
/// inside the backend (Equation (1)).
#[derive(Clone, Debug)]
pub struct StepInput {
    /// Query vectors, one per query head.
    pub queries: Vec<Vec<f32>>,
    /// Key vectors, one per KV head.
    pub keys: Vec<Vec<f32>>,
    /// Value vectors, one per KV head.
    pub values: Vec<Vec<f32>>,
}

/// Attention + KV-cache service interface: Table 2's `Session.update` is
/// [`AttentionBackend::append`], and `Session.update` followed by
/// `Session.attention` is [`AttentionBackend::attend`], fused into one
/// per-layer call.
///
/// **Ordering contract.** For each layer, calls arrive in position order:
/// an `attend` or an `append` at `layer` carries the token right after the
/// ones `layer` already holds. Layers do not advance together:
/// [`Model::prefill`](crate::Model::prefill) runs a chunk of tokens through
/// layer `l` before layer `l + 1`, so a layer may run ahead of the next by
/// fewer than [`PREFILL_CHUNK`](crate::PREFILL_CHUNK) positions (and, if a
/// prefill is interrupted, stay that far apart). A backend therefore keys
/// every piece of sequence state by layer, and an implementation that does
/// so sees, per layer, the steps of a token-at-a-time loop in its order,
/// with an `append` where that loop would attend an output nothing reads.
pub trait AttentionBackend {
    /// Appends this step's K/V to `layer`'s cache, then returns the attention
    /// output for every query head (causal: the new token attends to all
    /// cached tokens including itself).
    fn attend(&mut self, layer: usize, input: StepInput) -> Vec<Vec<f32>>;

    /// Appends this step's K/V to `layer`'s cache, with whatever else the
    /// backend records per step (query samples, say), without attending.
    /// [`Model::prefill`](crate::Model::prefill) calls it at the last layer
    /// for every prompt row but the one whose logits it returns: no later
    /// computation reads those rows' attention outputs.
    ///
    /// The default attends and discards the output. An override must leave
    /// exactly the state `attend` would leave, so that no later call, and
    /// nothing stored from the backend, can tell the two apart; only a log
    /// of the attention calls themselves (a session's plan log) may record
    /// the call as absent.
    fn append(&mut self, layer: usize, input: StepInput) {
        self.attend(layer, input);
    }

    /// Number of tokens cached for `layer`.
    fn seq_len(&self, layer: usize) -> usize;
}

/// Exact full attention over an in-process KV cache — the paper's "coupled
/// architecture" (① in Table 1) and the quality reference for every sparse
/// method. `Clone` forks the sequence: both copies continue from the same
/// cache.
#[derive(Clone)]
pub struct FullKvBackend {
    cache: KvCache,
    gqa_group: usize,
    inv_sqrt_d: f32,
}

impl FullKvBackend {
    /// Creates an empty backend for the given model configuration.
    pub fn new(cfg: &ModelConfig) -> Self {
        Self {
            cache: KvCache::new(cfg.n_layers, cfg.n_kv_heads, cfg.head_dim),
            gqa_group: cfg.gqa_group_size(),
            inv_sqrt_d: 1.0 / (cfg.head_dim as f32).sqrt(),
        }
    }

    /// Borrows the underlying cache (for `DB.import`).
    pub fn cache(&self) -> &KvCache {
        &self.cache
    }

    /// Consumes the backend, returning the cache.
    pub fn into_cache(self) -> KvCache {
        self.cache
    }
}

impl AttentionBackend for FullKvBackend {
    fn attend(&mut self, layer: usize, input: StepInput) -> Vec<Vec<f32>> {
        self.cache.push_token(layer, &input.keys, &input.values);
        let head_dim = self.cache.head_dim();

        input
            .queries
            .iter()
            .enumerate()
            .map(|(qh, q)| {
                let kv = self.cache.head(layer, qh / self.gqa_group);
                let mut acc = OnlineSoftmax::new(head_dim);
                acc.push_rows(q, &kv.keys, &kv.values, self.inv_sqrt_d, 0..kv.len());
                acc.output()
            })
            .collect()
    }

    fn append(&mut self, layer: usize, input: StepInput) {
        self.cache.push_token(layer, &input.keys, &input.values);
    }

    fn seq_len(&self, layer: usize) -> usize {
        self.cache.seq_len(layer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step(cfg: &ModelConfig, fill: f32) -> StepInput {
        StepInput {
            queries: (0..cfg.n_q_heads)
                .map(|h| vec![fill + h as f32; cfg.head_dim])
                .collect(),
            keys: (0..cfg.n_kv_heads)
                .map(|h| vec![fill * 0.5 + h as f32; cfg.head_dim])
                .collect(),
            values: (0..cfg.n_kv_heads)
                .map(|h| vec![fill - h as f32; cfg.head_dim])
                .collect(),
        }
    }

    #[test]
    fn first_token_attends_only_to_itself() {
        let cfg = ModelConfig::tiny();
        let mut b = FullKvBackend::new(&cfg);
        let input = step(&cfg, 1.0);
        let values = input.values.clone();
        let out = b.attend(0, input);
        assert_eq!(out.len(), cfg.n_q_heads);
        // With a single cached token, softmax weight is 1.0 on its value.
        for (qh, o) in out.iter().enumerate() {
            let kv_head = cfg.kv_head_of(qh);
            for (a, b) in o.iter().zip(&values[kv_head]) {
                assert!((a - b).abs() < 1e-5);
            }
        }
        assert_eq!(b.seq_len(0), 1);
        assert_eq!(b.seq_len(1), 0);
    }

    #[test]
    fn seq_len_tracks_per_layer() {
        let cfg = ModelConfig::tiny();
        let mut b = FullKvBackend::new(&cfg);
        b.attend(0, step(&cfg, 0.1));
        b.attend(0, step(&cfg, 0.2));
        b.attend(1, step(&cfg, 0.3));
        assert_eq!(b.seq_len(0), 2);
        assert_eq!(b.seq_len(1), 1);
    }

    #[test]
    fn output_is_convex_combination_of_values() {
        let cfg = ModelConfig::tiny();
        let mut b = FullKvBackend::new(&cfg);
        b.attend(0, step(&cfg, 0.0));
        let out = b.attend(0, step(&cfg, 1.0));
        // Values for kv head 0 were [0.0...] then [1.0...]; any attention
        // output must lie between them coordinate-wise.
        for &x in &out[0] {
            assert!((-1e-5..=1.0 + 1e-5).contains(&x), "{x} outside hull");
        }
    }

    #[test]
    fn gqa_groups_share_kv() {
        let cfg = ModelConfig::tiny(); // 4 q heads, 2 kv heads
        let mut b = FullKvBackend::new(&cfg);
        let mut input = step(&cfg, 1.0);
        // Make queries in the same GQA group identical.
        input.queries[1] = input.queries[0].clone();
        input.queries[3] = input.queries[2].clone();
        let out = b.attend(0, input);
        assert_eq!(out[0], out[1], "same query + same kv head => same output");
        assert_eq!(out[2], out[3]);
    }
}
