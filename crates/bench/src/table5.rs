//! Table 5: generation quality of sparse attention methods on the
//! ∞-Bench-analogue suite — DIPRS matches full attention and beats the
//! other fixed-budget methods.
//!
//! Methods and settings mirror the paper (window sizes rescaled to the
//! reduced context length; retrieval budgets kept absolute where the paper
//! keeps them absolute): Full Attention, InfLLM, StreamingLLM, Top-100,
//! Top-2000, DIPRS. Quality is the synthetic-task accuracy (see
//! `alaya-workloads`). Next to it stands each method's measured mean
//! attended tokens, the measured form of "Top-2000 matches DIPRS's quality
//! by attending far more tokens". The paper's SLO column is not
//! reproduced: it needs GPU time, and there is no GPU here.

use alaya_attention::{
    DiprsAttention, FullAttention, InfLlm, SparseAttention, StreamingLlm, TopKRetrieval, WindowSpec,
};
use alaya_workloads::{evaluate_engines, EngineScore, Task, TaskKind};

use crate::{Verdict, DIM};

/// The claim: DIPRS's average accuracy is at most this many points below
/// full attention's.
pub const FULL_ATTENTION_SLACK: f64 = 1.0;

/// One method's row.
#[derive(Clone, Debug)]
pub struct MethodRow {
    /// Engine display name.
    pub method: String,
    /// The paper's setting for the method.
    pub setting: String,
    /// (task, accuracy) per task.
    pub scores: Vec<(String, f64)>,
    /// Mean accuracy over the tasks.
    pub average: f64,
    /// Mean tokens attended per query, over the tasks.
    pub mean_attended: f64,
}

/// Evaluates every method on every task at context length `ctx`.
pub fn measure(ctx: usize, instances: usize) -> Vec<MethodRow> {
    // Window fractions follow the paper's fractions of its ~129K average
    // context; retrieval budgets stay absolute like the paper's.
    let w_small = WindowSpec::new(16, 64); // paper [128+512]
    let infllm = InfLlm {
        window: WindowSpec::new(16, 128), // paper [128+4K]
        n_select_blocks: 2,
        gpu_cache_tokens: ctx / 4,
    };
    let streaming = StreamingLlm {
        window: WindowSpec::new(16, 256), // paper [128]+8K
    };
    let top100 = TopKRetrieval {
        window: w_small,
        k: 100,
        ef: 200,
    };
    let top2000 = TopKRetrieval {
        window: w_small,
        k: 2000,
        ef: 2400,
    };
    let diprs = DiprsAttention {
        window: w_small,
        beta: 4.0 * (DIM as f32).sqrt(),
        l0: 128,
    };
    let engines: [(&dyn SparseAttention, &str); 6] = [
        (&FullAttention, "full context"),
        (&infllm, "[128+4K]+4K tokens"),
        (&streaming, "[128]+8K tokens"),
        (&top100, "[128+512]+100 tokens"),
        (&top2000, "[128+512]+2K tokens"),
        (&diprs, "[128+512] tokens, beta=50"),
    ];
    let engine_refs: Vec<&dyn SparseAttention> = engines.iter().map(|(e, _)| *e).collect();

    let mut per_engine = vec![Vec::new(); engines.len()];
    for kind in TaskKind::infinite_bench() {
        let scores = evaluate_engines(&engine_refs, &Task::new(kind, ctx, DIM), instances, 0xA11A);
        for (e, s) in scores.into_iter().enumerate() {
            per_engine[e].push(s);
        }
    }
    engines
        .iter()
        .zip(per_engine)
        .map(|((engine, setting), scores)| {
            let mean = |f: fn(&EngineScore) -> f64| {
                scores.iter().map(f).sum::<f64>() / scores.len() as f64
            };
            MethodRow {
                method: engine.name(),
                setting: setting.to_string(),
                average: mean(|s| s.accuracy),
                mean_attended: mean(|s| s.mean_attended),
                scores: scores
                    .iter()
                    .map(|s| (s.task.clone(), s.accuracy))
                    .collect(),
            }
        })
        .collect()
}

/// Average accuracy of the method whose name starts with `prefix`.
fn average(rows: &[MethodRow], prefix: &str) -> Result<f64, String> {
    rows.iter()
        .find(|r| r.method.starts_with(prefix))
        .map(|r| r.average)
        .ok_or_else(|| format!("no {prefix} row"))
}

/// DIPRS averages at least full attention − [`FULL_ATTENTION_SLACK`] and
/// above InfLLM, StreamingLLM and Top-100.
pub fn check(rows: &[MethodRow]) -> Verdict {
    let diprs = average(rows, "DIPRS")?;
    let full = average(rows, "Full Attention")?;
    if diprs < full - FULL_ATTENTION_SLACK {
        return Err(format!(
            "DIPRS averages {diprs:.1}, more than {FULL_ATTENTION_SLACK} point below full \
             attention's {full:.1}"
        ));
    }
    let mut beaten = Vec::new();
    for rival in ["InfLLM", "StreamingLLM", "Top100"] {
        let avg = average(rows, rival)?;
        if diprs <= avg {
            return Err(format!(
                "DIPRS averages {diprs:.1}, not above {rival}'s {avg:.1}"
            ));
        }
        beaten.push(format!("{rival} {avg:.1}"));
    }
    Ok(format!(
        "DIPRS averages {diprs:.1} (full attention {full:.1}), above {}",
        beaten.join(", ")
    ))
}
