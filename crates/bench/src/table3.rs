//! Table 3: the number k of required tokens differs per task.
//!
//! For each LongBench-analogue task, finds the smallest top-k budget whose
//! accuracy matches full attention (Observation II): the required k spans
//! an order of magnitude across tasks (20 … 350 in the paper), so no single
//! static k fits every workload. "Matches full attention" means anything
//! only where full attention itself solves the task, so that is a
//! precondition of the claim.

use alaya_attention::attend_all;
use alaya_index::flat::FlatIndex;
use alaya_workloads::{Task, TaskKind};

use crate::{answers, min_max, Verdict, DIM};

const SWEEP_KS: [usize; 15] = [
    10, 20, 35, 50, 65, 100, 150, 200, 250, 350, 500, 700, 1000, 1500, 2200,
];
/// Instances an accuracy may fall short by and still count as a match —
/// of top-k against full attention, and of full attention against the
/// ceiling (every instance correct).
const SLACK: usize = 1;
/// The claim: required k spans at least this factor across tasks.
pub const MIN_SPREAD: f64 = 10.0;

/// One task's row.
#[derive(Clone, Debug)]
pub struct TaskRow {
    /// Task display name.
    pub task: String,
    /// Smallest swept k within `SLACK` (1) instance of full attention.
    pub required_k: usize,
    /// `required_k` as a percentage of the context.
    pub proportion_pct: f64,
    /// Instances full attention answers correctly.
    pub full_attention_correct: usize,
    /// Instances evaluated.
    pub instances: usize,
    /// The paper's Table 3 value for this task.
    pub reference_m: usize,
}

/// Finds each task's required k at context length `ctx`.
pub fn measure(ctx: usize, instances: usize) -> Vec<TaskRow> {
    let attn_scale = 1.0 / (DIM as f32).sqrt();
    let mut rows = Vec::new();
    for kind in TaskKind::longbench() {
        let task = Task::new(kind, ctx, DIM);
        let mut full_correct = 0usize;
        let mut topk_correct = [0usize; SWEEP_KS.len()];
        for i in 0..instances {
            let inst = task.instance(i as u64, 0x7AB3);
            let full = attend_all(&inst.query, &inst.keys, &inst.values, attn_scale);
            full_correct += usize::from(inst.is_correct(&full.out));
            for (k, correct) in SWEEP_KS.into_iter().zip(&mut topk_correct) {
                let selected = FlatIndex.search_topk(&inst.keys, &inst.query, k);
                *correct += usize::from(answers(&inst, &selected));
            }
        }
        let required = SWEEP_KS
            .into_iter()
            .zip(topk_correct)
            .find(|&(_, correct)| correct + SLACK >= full_correct)
            .map_or(SWEEP_KS[SWEEP_KS.len() - 1], |(k, _)| k);
        rows.push(TaskRow {
            task: kind.name().into(),
            required_k: required,
            proportion_pct: 100.0 * required as f64 / ctx as f64,
            full_attention_correct: full_correct,
            instances,
            reference_m: task.reference_m(),
        });
    }
    rows
}

/// Precondition: full attention reaches the ceiling (within `SLACK`, 1 instance) on
/// every task. Claim: the required k spans at least [`MIN_SPREAD`].
pub fn check(rows: &[TaskRow]) -> Verdict {
    if let Some(r) = rows
        .iter()
        .find(|r| r.full_attention_correct + SLACK < r.instances)
    {
        return Err(format!(
            "precondition: full attention misses the ceiling on {} ({}/{} correct), so \
             \"the k that matches full attention\" is meaningless there",
            r.task, r.full_attention_correct, r.instances
        ));
    }
    let (min, max) =
        min_max(rows.iter().map(|r| r.required_k as f64)).ok_or("no tasks measured")?;
    let spread = max / min;
    if spread < MIN_SPREAD {
        return Err(format!(
            "required k spans only {min}..{max} ({spread:.1}x < {MIN_SPREAD}x): \
             one static k would fit every task"
        ));
    }
    Ok(format!(
        "required k spans {min}..{max} ({spread:.0}x): no single static k fits (Observation II)"
    ))
}
