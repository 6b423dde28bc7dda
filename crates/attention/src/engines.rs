//! The sparse attention engines compared in the paper's evaluation — each
//! one a parameterisation of the shared executor ([`attend`]).

use alaya_query::optimizer::Plan;
use alaya_query::types::{IndexChoice, QueryType};

use crate::context::HeadContext;
use crate::executor::{attend, attend_all, attend_selected, AttendOutput};
use crate::window::WindowSpec;

/// One sparse attention method: an executor plan + memory accounting.
///
/// Every engine runs the plan the query optimizer would emit for it through
/// [`attend`] — the code `alaya_core::Session` serves — so engines only
/// differ in *which* tokens the plan selects and *what* they must keep
/// GPU-resident.
pub trait SparseAttention {
    /// Method name as it appears in result tables.
    fn name(&self) -> String;

    /// Computes attention for query `q` over one head's context.
    fn attend(&self, q: &[f32], ctx: &HeadContext) -> AttendOutput;

    /// Bytes this method keeps resident in GPU memory for a context of
    /// `n_tokens` (excluding model weights), given the per-token KV size.
    /// Drives the Figure 9 memory axis and the optimizer's budget probe.
    fn gpu_bytes(&self, n_tokens: usize, kv_bytes_per_token: u64) -> u64;
}

/// Full attention: every token, KV cache resident on GPU (① in Table 1).
#[derive(Clone, Copy, Debug, Default)]
pub struct FullAttention;

impl SparseAttention for FullAttention {
    fn name(&self) -> String {
        "Full Attention".into()
    }

    fn attend(&self, q: &[f32], ctx: &HeadContext) -> AttendOutput {
        attend_all(q, &ctx.keys, &ctx.values, ctx.scale())
    }

    fn gpu_bytes(&self, n_tokens: usize, kv_bytes_per_token: u64) -> u64 {
        n_tokens as u64 * kv_bytes_per_token
    }
}

/// StreamingLLM (attention sinks): window-only attention; every other token
/// is dropped.
#[derive(Clone, Copy, Debug)]
pub struct StreamingLlm {
    /// The retained window.
    pub window: WindowSpec,
}

impl StreamingLlm {
    /// Table 5 setting: `[128]+8K` — 128 initial tokens plus an 8K local
    /// window.
    pub fn paper_default() -> Self {
        Self {
            window: WindowSpec::new(128, 8192),
        }
    }
}

impl SparseAttention for StreamingLlm {
    fn name(&self) -> String {
        format!("StreamingLLM[{}+{}]", self.window.initial, self.window.last)
    }

    fn attend(&self, q: &[f32], ctx: &HeadContext) -> AttendOutput {
        attend_selected(q, &ctx.keys, &ctx.values, ctx.scale(), self.window, &[])
    }

    fn gpu_bytes(&self, n_tokens: usize, kv_bytes_per_token: u64) -> u64 {
        self.window.len(n_tokens) as u64 * kv_bytes_per_token
    }
}

/// InfLLM: coarse block retrieval + window; blocks stay cached on the GPU
/// (the `TopK + Coarse` optimizer plan).
#[derive(Clone, Copy, Debug)]
pub struct InfLlm {
    /// The retained window.
    pub window: WindowSpec,
    /// Blocks selected per query.
    pub n_select_blocks: usize,
    /// Tokens cached on the GPU for block data (the Figure 9 memory knob).
    pub gpu_cache_tokens: usize,
}

impl InfLlm {
    /// Table 5 setting: `[128+4K]+4K` — window 128+4096, 4K retrieved
    /// tokens.
    pub fn paper_default(block_size: usize) -> Self {
        Self {
            window: WindowSpec::new(128, 4096),
            n_select_blocks: 4096 / block_size.max(1),
            gpu_cache_tokens: 32_768,
        }
    }
}

impl SparseAttention for InfLlm {
    fn name(&self) -> String {
        format!("InfLLM[{}+{}]", self.window.initial, self.window.last)
    }

    fn attend(&self, q: &[f32], ctx: &HeadContext) -> AttendOutput {
        // Without a coarse index the plan degrades to a flat top-k scan and
        // a "block" to a single token.
        let block_size = ctx.coarse.as_ref().map_or(1, |c| c.block_size());
        let k = self.n_select_blocks * block_size;
        let plan = sparse(QueryType::TopK { k }, IndexChoice::Coarse);
        attend(q, &ctx.view(), self.window, &plan, 0)
    }

    fn gpu_bytes(&self, n_tokens: usize, kv_bytes_per_token: u64) -> u64 {
        // Window + GPU-cached blocks + block summaries (summaries ≈ one
        // vector per block; folded into the cached-token budget).
        let cached = self.gpu_cache_tokens.min(n_tokens);
        (self.window.len(n_tokens) + cached) as u64 * kv_bytes_per_token
    }
}

/// RetrievalAttention-style top-k over a fine-grained graph index, plus
/// window (the `TopK + Fine` optimizer plan). Retrieval and retrieved-token
/// attention run on the CPU.
#[derive(Clone, Copy, Debug)]
pub struct TopKRetrieval {
    /// The retained window.
    pub window: WindowSpec,
    /// Tokens retrieved per query.
    pub k: usize,
    /// Beam width of the graph search.
    pub ef: usize,
}

impl TopKRetrieval {
    /// Table 5 "Top100": `[128+512] + 100` tokens.
    pub fn paper_top100() -> Self {
        Self {
            window: WindowSpec::paper_default(),
            k: 100,
            ef: 160,
        }
    }

    /// Table 5 "Top2000": `[128+512] + 2K` tokens.
    pub fn paper_top2000() -> Self {
        Self {
            window: WindowSpec::paper_default(),
            k: 2000,
            ef: 2400,
        }
    }
}

impl SparseAttention for TopKRetrieval {
    fn name(&self) -> String {
        format!("Top{}", self.k)
    }

    fn attend(&self, q: &[f32], ctx: &HeadContext) -> AttendOutput {
        // Without a graph the plan degrades to a flat scan (the optimizer's
        // first-layer choice).
        let plan = sparse(QueryType::TopK { k: self.k }, IndexChoice::Fine);
        attend(q, &ctx.view(), self.window, &plan, self.ef)
    }

    fn gpu_bytes(&self, n_tokens: usize, kv_bytes_per_token: u64) -> u64 {
        // Only the window lives on the GPU; index + KV stay host-side.
        self.window.len(n_tokens) as u64 * kv_bytes_per_token
    }
}

/// AlayaDB's DIPR-based attention: DIPRS over the fine index (or exact DIPR
/// on a flat scan), window-seeded, merged data-centrically.
#[derive(Clone, Copy, Debug)]
pub struct DiprsAttention {
    /// The retained window (also the pruning seed, §7.1).
    pub window: WindowSpec,
    /// Inner-product margin β (Definition 3).
    pub beta: f32,
    /// DIPRS capacity threshold `l0` (Algorithm 1).
    pub l0: usize,
}

impl DiprsAttention {
    /// Table 5 setting: `[128+512]`, β = 50 (for head_dim 128).
    pub fn paper_default() -> Self {
        Self {
            window: WindowSpec::paper_default(),
            beta: 50.0,
            l0: 64,
        }
    }
}

impl SparseAttention for DiprsAttention {
    fn name(&self) -> String {
        format!("DIPRS(beta={:.0})", self.beta)
    }

    fn attend(&self, q: &[f32], ctx: &HeadContext) -> AttendOutput {
        let plan = sparse(QueryType::Dipr { beta: self.beta }, IndexChoice::Fine);
        attend(q, &ctx.view(), self.window, &plan, self.l0)
    }

    fn gpu_bytes(&self, n_tokens: usize, kv_bytes_per_token: u64) -> u64 {
        self.window.len(n_tokens) as u64 * kv_bytes_per_token
    }
}

/// An unfiltered sparse plan: engines attend whole contexts.
fn sparse(query: QueryType, index: IndexChoice) -> Plan {
    Plan::Sparse {
        query,
        index,
        filter: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alaya_index::coarse::BlockScoring;
    use alaya_index::roargraph::RoarGraphParams;
    use alaya_vector::rng::{gaussian_store, gaussian_vec, seeded};

    /// A context with one planted critical token in the middle.
    fn planted_ctx(n: usize, dim: usize, critical: usize) -> (HeadContext, Vec<f32>) {
        let mut rng = seeded(42);
        let mut keys = gaussian_store(&mut rng, n, dim, 0.3);
        let values = gaussian_store(&mut rng, n, dim, 1.0);
        let q = gaussian_vec(&mut rng, dim, 1.0);
        // Plant: key[critical] = q scaled up, so it dominates every IP.
        let boosted: Vec<f32> = q.iter().map(|x| x * 4.0).collect();
        keys.row_mut(critical).copy_from_slice(&boosted);
        let mut ctx = HeadContext::new(keys, values);
        let train = gaussian_store(&mut rng, n / 2, dim, 1.0);
        ctx.build_graph(&train, RoarGraphParams::default());
        ctx.build_coarse(16, BlockScoring::MinMaxBounds);
        (ctx, q)
    }

    fn cosine(a: &[f32], b: &[f32]) -> f32 {
        let num = alaya_vector::dot(a, b);
        let den = alaya_vector::l2_norm(a) * alaya_vector::l2_norm(b);
        if den == 0.0 {
            0.0
        } else {
            num / den
        }
    }

    #[test]
    fn retrieval_engines_recover_full_attention_output() {
        let (ctx, q) = planted_ctx(512, 16, 300);
        let full = FullAttention.attend(&q, &ctx);

        let window = WindowSpec::new(16, 32);
        let engines: Vec<Box<dyn SparseAttention>> = vec![
            Box::new(InfLlm {
                window,
                n_select_blocks: 4,
                gpu_cache_tokens: 128,
            }),
            Box::new(TopKRetrieval {
                window,
                k: 32,
                ef: 64,
            }),
            Box::new(DiprsAttention {
                window,
                beta: 8.0,
                l0: 32,
            }),
        ];
        for e in &engines {
            let got = e.attend(&q, &ctx);
            let sim = cosine(&got.out, &full.out);
            assert!(sim > 0.98, "{}: cosine {sim}", e.name());
            assert!(got.n_attended < ctx.len(), "{} must be sparse", e.name());
        }

        // StreamingLLM misses the planted mid-context token → diverges.
        let stream = StreamingLlm { window }.attend(&q, &ctx);
        let sim = cosine(&stream.out, &full.out);
        assert!(
            sim < 0.9,
            "StreamingLLM should miss the critical token, cosine {sim}"
        );
    }

    #[test]
    fn diprs_attends_fewer_tokens_on_peaked_heads() {
        // Peaked distribution: one dominant key → DIPRS retrieves few.
        let (ctx, q) = planted_ctx(512, 16, 300);
        let diprs_out = DiprsAttention {
            window: WindowSpec::new(4, 8),
            beta: 2.0,
            l0: 16,
        }
        .attend(&q, &ctx);
        let topk_out = TopKRetrieval {
            window: WindowSpec::new(4, 8),
            k: 100,
            ef: 128,
        }
        .attend(&q, &ctx);
        assert!(
            diprs_out.n_attended < topk_out.n_attended,
            "DIPRS ({}) should retrieve fewer than top-100 ({}) on a peaked head",
            diprs_out.n_attended,
            topk_out.n_attended
        );
    }

    #[test]
    fn gpu_memory_ordering_matches_table_one() {
        // Full > InfLLM > Streaming ≈ TopK ≈ DIPRS for long contexts.
        let n = 200_000;
        let kv = 131_072; // Llama-3-8B bytes/token
        let full = FullAttention.gpu_bytes(n, kv);
        let infllm = InfLlm::paper_default(128).gpu_bytes(n, kv);
        let stream = StreamingLlm::paper_default().gpu_bytes(n, kv);
        let topk = TopKRetrieval::paper_top100().gpu_bytes(n, kv);
        let dipr = DiprsAttention::paper_default().gpu_bytes(n, kv);
        assert!(full > infllm);
        assert!(infllm > topk);
        assert!(stream > topk, "8K window > 640 window");
        assert_eq!(topk, dipr);
    }

    #[test]
    fn full_attention_names_and_exactness() {
        let mut rng = seeded(1);
        let keys = gaussian_store(&mut rng, 16, 4, 1.0);
        let values = gaussian_store(&mut rng, 16, 4, 1.0);
        let ctx = HeadContext::new(keys.clone(), values.clone());
        let q = gaussian_vec(&mut rng, 4, 1.0);
        let got = FullAttention.attend(&q, &ctx);
        assert_eq!(got.n_attended, 16);

        // Manual reference.
        let mut scores: Vec<f32> = (0..16).map(|i| keys.dot_row(&q, i) * ctx.scale()).collect();
        alaya_vector::softmax_in_place(&mut scores);
        let mut want = vec![0.0f32; 4];
        for (w, i) in scores.iter().zip(0..16) {
            alaya_vector::axpy(*w, values.row(i), &mut want);
        }
        for (a, b) in got.out.iter().zip(&want) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn engines_tolerate_tiny_contexts() {
        let mut rng = seeded(2);
        let keys = gaussian_store(&mut rng, 3, 4, 1.0);
        let values = gaussian_store(&mut rng, 3, 4, 1.0);
        let mut ctx = HeadContext::new(keys, values);
        ctx.build_coarse(2, BlockScoring::MinMaxBounds);
        let q = gaussian_vec(&mut rng, 4, 1.0);
        let w = WindowSpec::new(8, 8); // bigger than the context
        for e in [
            &StreamingLlm { window: w } as &dyn SparseAttention,
            &InfLlm {
                window: w,
                n_select_blocks: 2,
                gpu_cache_tokens: 10,
            },
            &TopKRetrieval {
                window: w,
                k: 5,
                ef: 8,
            },
            &DiprsAttention {
                window: w,
                beta: 1.0,
                l0: 64,
            },
        ] {
            let out = e.attend(&q, &ctx);
            assert_eq!(out.n_attended, 3, "{}", e.name());
            assert!(out.out.iter().all(|v| v.is_finite()));
        }
    }
}
