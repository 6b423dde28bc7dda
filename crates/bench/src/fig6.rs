//! Figure 6: DIPR reaches the top accuracy with fewer retrieved tokens than
//! top-k, on Passage Retrieval and LCC.
//!
//! Sweeps k for top-k and β for DIPR, both with exact flat selection so the
//! comparison isolates *query semantics* from index recall (the paper's
//! framing), and records accuracy against the mean number of retrieved
//! tokens. The tasks' per-instance criticality varies (Observation II), so
//! a range query adapts where a fixed k must be sized for the worst case.

use alaya_index::flat::FlatIndex;
use alaya_vector::topk::ScoredIdx;
use alaya_workloads::{Task, TaskInstance, TaskKind};

use crate::{answers, Verdict, DIM};

/// Tasks the figure plots.
pub const TASKS: [TaskKind; 2] = [TaskKind::PassageRetrieval, TaskKind::Lcc];
const KS: [usize; 7] = [25, 50, 100, 200, 400, 800, 1200];
/// β values in logits (multiplied by √d for inner-product units).
const BETAS_LOGIT: [f32; 7] = [1.0, 2.0, 2.5, 3.0, 3.5, 4.0, 5.0];

/// One point of a sweep.
#[derive(Clone, Debug)]
pub struct SweepPoint {
    /// Task display name.
    pub task: String,
    /// `"topk"` or `"dipr"`.
    pub method: String,
    /// k for top-k, β in logits for DIPR.
    pub param: f32,
    /// Mean retrieved tokens per instance.
    pub mean_tokens: f64,
    /// Accuracy in `[0, 100]`.
    pub accuracy: f64,
}

/// Runs both sweeps on both tasks at context length `ctx`.
pub fn measure(ctx: usize, instances: usize) -> Vec<SweepPoint> {
    let sqrt_d = (DIM as f32).sqrt();
    type Select = Box<dyn Fn(&TaskInstance) -> Vec<ScoredIdx>>;
    let mut sweep: Vec<(&str, f32, Select)> = Vec::new();
    for k in KS {
        let select = move |i: &TaskInstance| FlatIndex.search_topk(&i.keys, &i.query, k);
        sweep.push(("topk", k as f32, Box::new(select)));
    }
    for b in BETAS_LOGIT {
        let select = move |i: &TaskInstance| FlatIndex.search_dipr(&i.keys, &i.query, b * sqrt_d);
        sweep.push(("dipr", b, Box::new(select)));
    }
    let mut points = Vec::new();
    for kind in TASKS {
        let task = Task::new(kind, ctx, DIM);
        // (correct, retrieved tokens) per sweep point.
        let mut tally = vec![(0usize, 0usize); sweep.len()];
        for i in 0..instances {
            let inst = task.instance(i as u64, 0xF166);
            for ((_, _, select), (correct, tokens)) in sweep.iter().zip(&mut tally) {
                let selected = select(&inst);
                *tokens += selected.len();
                *correct += usize::from(answers(&inst, &selected));
            }
        }
        for ((method, param, _), (correct, tokens)) in sweep.iter().zip(tally) {
            points.push(SweepPoint {
                task: kind.name().into(),
                method: method.to_string(),
                param: *param,
                mean_tokens: tokens as f64 / instances as f64,
                accuracy: 100.0 * correct as f64 / instances as f64,
            });
        }
    }
    points
}

/// Fewest mean tokens at which `method` reaches `ceiling` on `task`
/// (infinite if it never does).
fn cheapest(points: &[SweepPoint], task: &str, method: &str, ceiling: f64) -> f64 {
    points
        .iter()
        .filter(|p| p.task == task && p.method == method && p.accuracy >= ceiling)
        .map(|p| p.mean_tokens)
        .fold(f64::INFINITY, f64::min)
}

/// On every task, DIPR reaches the sweep's top accuracy with fewer mean
/// tokens than top-k does.
pub fn check(points: &[SweepPoint]) -> Verdict {
    let mut headline = Vec::new();
    for kind in TASKS {
        let task = kind.name();
        let ceiling = points
            .iter()
            .filter(|p| p.task == task)
            .map(|p| p.accuracy)
            .fold(0.0f64, f64::max);
        let dipr = cheapest(points, task, "dipr", ceiling);
        let topk = cheapest(points, task, "topk", ceiling);
        if dipr >= topk {
            return Err(format!(
                "{task}: DIPR needs {dipr:.0} mean tokens to reach the top accuracy {ceiling:.1}, \
                 top-k {topk:.0}: DIPR is not cheaper"
            ));
        }
        headline.push(format!("{task} {dipr:.0} vs {topk:.0}"));
    }
    Ok(format!(
        "mean tokens to reach the top accuracy, DIPR vs top-k: {}",
        headline.join(", ")
    ))
}
