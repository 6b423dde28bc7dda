//! Shape of the model the paper serves, for paper-scale byte accounting.
//!
//! The reproduction runs at reduced context and head sizes; what a method
//! would keep resident when serving Llama-3-8B at the paper's context
//! lengths (Figure 9's memory axis) is computed from this shape.

/// Structural description of a transformer model (no weights, just shape).
#[derive(Clone, Debug)]
pub struct ModelShape {
    /// Transformer layer count.
    pub n_layers: usize,
    /// Query heads per layer.
    pub n_q_heads: usize,
    /// Key/value heads per layer (GQA groups; `n_kv_heads <= n_q_heads`).
    pub n_kv_heads: usize,
    /// Per-head dimensionality.
    pub head_dim: usize,
    /// Model (residual-stream) width; usually `n_q_heads * head_dim`.
    pub hidden_dim: usize,
    /// Feed-forward inner width.
    pub ffn_dim: usize,
    /// Vocabulary size.
    pub vocab_size: usize,
    /// Bytes per stored element (2 = bf16, as in the paper's setup).
    pub bytes_per_elem: usize,
}

impl ModelShape {
    /// Llama-3-8B-Instruct-262k: the model used throughout the paper's
    /// evaluation (32 layers, 32 query heads, 8 KV heads, head dim 128).
    pub fn llama3_8b() -> Self {
        Self {
            n_layers: 32,
            n_q_heads: 32,
            n_kv_heads: 8,
            head_dim: 128,
            hidden_dim: 4096,
            ffn_dim: 14336,
            vocab_size: 128_256,
            bytes_per_elem: 2,
        }
    }

    /// Approximate parameter count (attention + MLP + embeddings).
    pub fn param_count(&self) -> u64 {
        let d = self.hidden_dim as u64;
        let kv_dim = (self.n_kv_heads * self.head_dim) as u64;
        let attn = self.n_layers as u64 * (d * d + 2 * d * kv_dim + d * d);
        let mlp = self.n_layers as u64 * 3 * d * self.ffn_dim as u64;
        let embed = self.vocab_size as u64 * d;
        attn + mlp + embed
    }

    /// Resident bytes for the weights (the paper reports 15.4 GB for
    /// Llama-3-8B in bf16).
    pub fn weights_bytes(&self) -> u64 {
        self.param_count() * self.bytes_per_elem as u64
    }

    /// KV-cache bytes per token across all layers and KV heads.
    pub fn kv_bytes_per_token(&self) -> u64 {
        (self.n_layers * self.n_kv_heads * self.head_dim * 2 * self.bytes_per_elem) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn llama3_shape_constants_match_paper() {
        let s = ModelShape::llama3_8b();
        // §9: "The model has 32 layers. Each layer includes 32 query heads
        // and 8 key value heads."
        assert_eq!(s.n_layers, 32);
        assert_eq!((s.n_q_heads, s.n_kv_heads), (32, 8));
        // 128 KiB of KV per token in bf16.
        assert_eq!(s.kv_bytes_per_token(), 131_072);
        // §9: weights occupy 15.4 GB; the parameter-count estimate should
        // land within 10% of that.
        let gb = s.weights_bytes() as f64 / 1e9;
        assert!((gb - 16.0).abs() < 2.0, "weights {gb} GB");
    }
}
