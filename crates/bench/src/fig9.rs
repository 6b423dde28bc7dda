//! Figure 9: generation quality vs GPU memory on En.MC and En.QA — DIPRS
//! sits on the Pareto front.
//!
//! InfLLM and StreamingLLM trade memory for quality (their caches are the
//! knob); Top-100 and DIPRS keep only the window resident. Accuracy is
//! measured at reduced context; the memory axis is weights + what each
//! method keeps resident at paper scale (Llama-3-8B bf16, 131072 B/token,
//! a 129K-token context), from each engine's own
//! [`SparseAttention::gpu_bytes`] at the paper's window sizes.

use alaya_attention::{
    DiprsAttention, InfLlm, SparseAttention, StreamingLlm, TopKRetrieval, WindowSpec,
};
use alaya_device::ModelShape;
use alaya_workloads::{evaluate_engines, Task, TaskKind};

use crate::{fmt_bytes, Verdict, DIM};

/// Tasks the figure plots.
pub const TASKS: [TaskKind; 2] = [TaskKind::EnMc, TaskKind::EnQa];
/// The paper's average ∞-Bench context length.
const PAPER_CTX: usize = 129_000;
/// Cached-token budgets of the InfLLM/StreamingLLM sweep, as fractions of
/// the context (the paper sweeps ~1K–50K cached tokens).
const CACHE_FRACS: [f64; 5] = [0.02, 0.05, 0.12, 0.25, 0.5];

/// One (method, memory) point.
#[derive(Clone, Debug)]
pub struct MemPoint {
    /// Task display name.
    pub task: String,
    /// Engine display name.
    pub method: String,
    /// Cache budget in percent of the context; `None` for the fixed-memory
    /// methods (Top-100, DIPRS).
    pub cache_pct: Option<f64>,
    /// Weights + resident KV at paper scale.
    pub gpu_bytes: u64,
    /// Accuracy in `[0, 100]`.
    pub accuracy: f64,
}

/// One method: its cache fraction (if swept), the engine measured at
/// context `ctx`, and the same engine at paper scale for the memory axis.
type Method = (
    Option<f64>,
    Box<dyn SparseAttention>,
    Box<dyn SparseAttention>,
);

fn methods(ctx: usize) -> Vec<Method> {
    let paper_window = WindowSpec::new(128, 512);
    let mut methods: Vec<Method> = Vec::new();
    for frac in CACHE_FRACS {
        let cached = (ctx as f64 * frac) as usize;
        let paper_cached = (PAPER_CTX as f64 * frac) as usize;
        methods.push((
            Some(frac),
            Box::new(InfLlm {
                window: WindowSpec::new(16, 64),
                n_select_blocks: (cached / 64).max(1),
                gpu_cache_tokens: cached,
            }),
            Box::new(InfLlm {
                window: paper_window,
                n_select_blocks: 1,
                gpu_cache_tokens: paper_cached,
            }),
        ));
        methods.push((
            Some(frac),
            Box::new(StreamingLlm {
                window: WindowSpec::new(16, cached.max(16)),
            }),
            Box::new(StreamingLlm {
                window: WindowSpec::new(128, paper_cached.max(128)),
            }),
        ));
    }
    let top100 = TopKRetrieval {
        window: WindowSpec::new(16, 64),
        k: 100,
        ef: 200,
    };
    let diprs = DiprsAttention {
        window: WindowSpec::new(16, 64),
        beta: 4.0 * (DIM as f32).sqrt(),
        l0: 64,
    };
    methods.push((
        None,
        Box::new(top100),
        Box::new(TopKRetrieval {
            window: paper_window,
            ..top100
        }),
    ));
    methods.push((
        None,
        Box::new(diprs),
        Box::new(DiprsAttention {
            window: paper_window,
            ..diprs
        }),
    ));
    methods
}

/// Evaluates every method on both tasks at context length `ctx`.
pub fn measure(ctx: usize, instances: usize) -> Vec<MemPoint> {
    let shape = ModelShape::llama3_8b();
    let methods = methods(ctx);
    let engines: Vec<&dyn SparseAttention> = methods.iter().map(|m| &*m.1).collect();
    let mut points = Vec::new();
    for kind in TASKS {
        let scores = evaluate_engines(&engines, &Task::new(kind, ctx, DIM), instances, 0xF19);
        for (s, (frac, _, paper)) in scores.iter().zip(&methods) {
            points.push(MemPoint {
                task: kind.name().into(),
                method: s.engine.clone(),
                cache_pct: frac.map(|f| f * 100.0),
                gpu_bytes: shape.weights_bytes()
                    + paper.gpu_bytes(PAPER_CTX, shape.kv_bytes_per_token()),
                accuracy: s.accuracy,
            });
        }
    }
    points
}

/// On every task, no point with at most DIPRS's memory is more accurate,
/// and every InfLLM/StreamingLLM point that matches DIPRS's accuracy uses
/// more memory.
pub fn check(points: &[MemPoint]) -> Verdict {
    let mut headline = Vec::new();
    for kind in TASKS {
        let task = kind.name();
        let on_task = || points.iter().filter(move |p| p.task == task);
        let d = on_task()
            .find(|p| p.method.starts_with("DIPRS"))
            .ok_or_else(|| format!("{task}: no DIPRS point"))?;
        if let Some(p) = on_task().find(|p| p.gpu_bytes <= d.gpu_bytes && p.accuracy > d.accuracy) {
            return Err(format!(
                "{task}: {} reaches {:.1} at {} (DIPRS: {:.1} at {}): DIPRS is not on the Pareto front",
                p.method,
                p.accuracy,
                fmt_bytes(p.gpu_bytes),
                d.accuracy,
                fmt_bytes(d.gpu_bytes)
            ));
        }
        let matching = on_task().filter(|p| p.cache_pct.is_some() && p.accuracy >= d.accuracy);
        if let Some(p) = matching.clone().find(|p| p.gpu_bytes <= d.gpu_bytes) {
            return Err(format!(
                "{task}: {} matches DIPRS's accuracy {:.1} at {}, no more than DIPRS's {}",
                p.method,
                d.accuracy,
                fmt_bytes(p.gpu_bytes),
                fmt_bytes(d.gpu_bytes)
            ));
        }
        let parity = matching
            .map(|p| p.gpu_bytes)
            .min()
            .map_or("none".into(), fmt_bytes);
        headline.push(format!(
            "{task}: DIPRS {:.1} at {}, cheapest cache-sweep parity {parity}",
            d.accuracy,
            fmt_bytes(d.gpu_bytes)
        ));
    }
    Ok(headline.join("; "))
}
