//! Analytical latency/footprint model for transformer inference.
//!
//! Converts workload shapes into simulated times for the operations that the
//! paper runs on the GPU (prefill compute, full-attention decode, PCIe KV
//! loading). The constants are calibrated so the *shape* of Figure 10
//! reproduces: prefill grows quadratically into the 10¹–10² s range at
//! 40K–200K tokens, LMCache-style loading grows linearly with context length,
//! and decode on an in-GPU cache sits in the tens-of-milliseconds range.

use serde::{Deserialize, Serialize};

use crate::spec::{DeviceSpec, LinkSpec};

/// Structural description of a transformer model (no weights, just shape).
#[derive(Clone, Debug, Serialize, Deserialize)]
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

    /// A small shape for in-repo end-to-end runs of the real (CPU, f32)
    /// transformer substrate.
    pub fn tiny() -> Self {
        Self {
            n_layers: 2,
            n_q_heads: 4,
            n_kv_heads: 2,
            head_dim: 16,
            hidden_dim: 64,
            ffn_dim: 128,
            vocab_size: 512,
            bytes_per_elem: 4,
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

    /// Total KV-cache bytes for a context of `n_tokens`.
    pub fn kv_bytes(&self, n_tokens: usize) -> u64 {
        self.kv_bytes_per_token() * n_tokens as u64
    }
}

/// Analytical cost model binding a model shape to a device pair.
#[derive(Clone, Debug)]
pub struct CostModel {
    /// The accelerator running model compute.
    pub gpu: DeviceSpec,
    /// The host holding offloaded KV caches.
    pub cpu: DeviceSpec,
    /// The host↔device link.
    pub link: LinkSpec,
    /// Model shape being served.
    pub shape: ModelShape,
    /// Fraction of peak FLOPs achieved by dense prefill GEMMs.
    pub prefill_mfu: f64,
    /// Fraction of peak memory bandwidth achieved by decode attention
    /// (GEMV-like, memory bound).
    pub decode_mem_eff: f64,
    /// Host-side KV decompression throughput (bytes/s) for KV-cache
    /// disaggregation baselines (LMCache-style; CacheGen-like codecs land in
    /// the low GB/s range on server CPUs).
    pub decompress_bandwidth: f64,
}

impl CostModel {
    /// The paper's evaluation rig: L20 + dual Xeon 6542Y + PCIe 4.0 x16,
    /// serving Llama-3-8B-262k.
    pub fn paper_rig() -> Self {
        Self {
            gpu: DeviceSpec::nvidia_l20(),
            cpu: DeviceSpec::xeon_6542y_dual(),
            link: LinkSpec::pcie_gen4_x16(),
            shape: ModelShape::llama3_8b(),
            prefill_mfu: 0.5,
            decode_mem_eff: 0.12,
            decompress_bandwidth: 4e9,
        }
    }

    /// FLOPs for a full prefill over `n` tokens: dense linear layers plus the
    /// O(n²) self-attention term of Equation (1).
    pub fn prefill_flops(&self, n: usize) -> f64 {
        let linear = 2.0 * self.shape.param_count() as f64 * n as f64;
        let attn = 4.0
            * (self.shape.n_layers * self.shape.n_q_heads * self.shape.head_dim) as f64
            * (n as f64)
            * (n as f64);
        linear + attn
    }

    /// Simulated wall time for a full prefill of `n` tokens on the GPU.
    pub fn prefill_time(&self, n: usize) -> f64 {
        self.prefill_flops(n) / (self.gpu.compute_flops * self.prefill_mfu)
    }

    /// Simulated wall time for one decode step with `attended_tokens` of KV
    /// resident on the GPU: weights GEMV plus attention over the cache, both
    /// memory-bandwidth bound.
    pub fn decode_step_time(&self, attended_tokens: usize) -> f64 {
        let weight_read = self.shape.weights_bytes() as f64 / self.gpu.mem_bandwidth;
        let kv_read = self.shape.kv_bytes(attended_tokens) as f64
            / (self.gpu.mem_bandwidth * self.decode_mem_eff);
        weight_read + kv_read
    }

    /// Simulated time to load an offloaded KV cache of `n` tokens into the
    /// GPU the way KV-cache-disaggregation systems do: host-side
    /// decompression followed by a PCIe transfer.
    pub fn kv_load_time(&self, n: usize) -> f64 {
        let bytes = self.shape.kv_bytes(n);
        bytes as f64 / self.decompress_bandwidth + self.link.transfer_time(bytes)
    }

    /// Simulated time to transfer `bytes` host→device without decompression.
    pub fn transfer_time(&self, bytes: u64) -> f64 {
        self.link.transfer_time(bytes)
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

    #[test]
    fn prefill_is_superlinear_in_context() {
        let m = CostModel::paper_rig();
        let t40 = m.prefill_time(40_000);
        let t200 = m.prefill_time(200_000);
        // 5x tokens must cost more than 5x time (the O(n²) term dominates).
        assert!(t200 > 5.0 * t40);
        // Shape check against Figure 10a: tens of seconds at 40K, hundreds at 200K.
        assert!(t40 > 1.0 && t40 < 100.0, "t40={t40}");
        assert!(t200 > 50.0 && t200 < 1000.0, "t200={t200}");
    }

    #[test]
    fn kv_load_grows_linearly() {
        let m = CostModel::paper_rig();
        let t40 = m.kv_load_time(40_000);
        let t200 = m.kv_load_time(200_000);
        assert!((t200 / t40 - 5.0).abs() < 0.1);
        // Figure 10b shape: seconds at 200K.
        assert!(t200 > 2.0 && t200 < 60.0, "t200={t200}");
    }

    #[test]
    fn decode_violates_slo_only_for_long_contexts() {
        let m = CostModel::paper_rig();
        // Short context decodes comfortably under the 0.24 s TPOT SLO...
        assert!(m.decode_step_time(8_000) < 0.24);
        // ...but full attention over a ~190K-token task does not (Table 5's
        // ✗ for Full Attention).
        assert!(m.decode_step_time(190_000) > 0.24);
    }

    #[test]
    fn tiny_shape_is_consistent() {
        let s = ModelShape::tiny();
        assert_eq!(s.hidden_dim, s.n_q_heads * s.head_dim);
        assert!(s.param_count() > 0);
    }
}
