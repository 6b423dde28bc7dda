//! Evaluation harness: run a sparse attention engine over task instances
//! and score it (accuracy, retrieved tokens, latency).

use std::time::Instant;

use alaya_attention::{HeadContext, SparseAttention};
use alaya_index::roargraph::RoarGraphParams;
use alaya_index::sharing::sample_rows;
use alaya_vector::rng::{gaussian_vec, seeded};
use alaya_vector::VecStore;

use crate::tasks::{Task, TaskInstance};

/// Aggregate result of one engine over one task.
#[derive(Clone, Debug)]
pub struct EngineScore {
    /// Engine display name.
    pub engine: String,
    /// Task display name.
    pub task: String,
    /// Accuracy in `[0, 100]` (the paper's quality scale).
    pub accuracy: f64,
    /// Mean distinct tokens attended per query.
    pub mean_attended: f64,
    /// Mean per-query attention latency in seconds (selection + compute,
    /// measured on this CPU).
    pub mean_latency_s: f64,
    /// Instances evaluated.
    pub n_instances: usize,
}

/// Builds the [`HeadContext`] for an instance: keys/values plus the indexes
/// engines may need. Training queries mix the instance query with
/// perturbations plus sampled keys — mimicking the prefill-phase query pool
/// the paper trains RoarGraph on.
pub fn instance_context(inst: &TaskInstance, seed: u64, with_graph: bool) -> HeadContext {
    let mut ctx = HeadContext::new(inst.keys.clone(), inst.values.clone());
    let dim = inst.keys.dim();
    if with_graph {
        let mut rng = seeded(seed);
        let mut train = VecStore::new(dim);
        // Perturbed copies of the live query direction. The perturbation is
        // strong (~1 logit of ranking noise per key): real prefill queries
        // differ by position, and for some of them the deep evidence bands
        // *are* the top-ranked keys — the training pool must reflect that
        // or stage-1 edges never touch the bands DIPRS has to reach.
        for _ in 0..(inst.len() / 8).max(16) {
            let mut v = inst.query.clone();
            let noise = gaussian_vec(&mut rng, dim, 1.2);
            for (vd, nd) in v.iter_mut().zip(&noise) {
                *vd += nd;
            }
            train.push(&v);
        }
        // ...plus sampled keys for coverage of the base distribution.
        train.extend_from(&sample_rows(&inst.keys, (inst.len() / 8).max(16)));
        // Deeper kNN lists + degree budget: decode queries must reach the
        // mid-logit evidence bands, not only the surface (cf. the paper's
        // RoarGraph settings for RetrievalAttention-style workloads).
        ctx.build_graph(
            &train,
            RoarGraphParams {
                knn_k: 48,
                max_degree: 48,
                ..Default::default()
            },
        );
    }
    ctx.build_coarse(
        64,
        alaya_index::coarse::BlockScoring::Representatives { reps: 4 },
    );
    ctx
}

/// Runs `engine` over `n_instances` instances of `task`.
pub fn evaluate_engine(
    engine: &dyn SparseAttention,
    task: &Task,
    n_instances: usize,
    seed: u64,
) -> EngineScore {
    evaluate_engines(&[engine], task, n_instances, seed)
        .pop()
        .expect("one engine")
}

/// Runs several engines over the same instances, building each instance's
/// context (and its indexes) once — the economical path for method
/// comparisons like Table 5.
pub fn evaluate_engines(
    engines: &[&dyn SparseAttention],
    task: &Task,
    n_instances: usize,
    seed: u64,
) -> Vec<EngineScore> {
    let mut correct = vec![0usize; engines.len()];
    let mut attended = vec![0usize; engines.len()];
    let mut elapsed = vec![0.0f64; engines.len()];
    for i in 0..n_instances {
        let inst = task.instance(i as u64, seed);
        let ctx = instance_context(&inst, seed ^ 0xABCD ^ i as u64, true);
        for (e, engine) in engines.iter().enumerate() {
            let t0 = Instant::now();
            let out = engine.attend(&inst.query, &ctx);
            elapsed[e] += t0.elapsed().as_secs_f64();
            attended[e] += out.n_attended;
            if inst.is_correct(&out.out) {
                correct[e] += 1;
            }
        }
    }
    engines
        .iter()
        .enumerate()
        .map(|(e, engine)| EngineScore {
            engine: engine.name(),
            task: task.kind.name().to_string(),
            accuracy: 100.0 * correct[e] as f64 / n_instances.max(1) as f64,
            mean_attended: attended[e] as f64 / n_instances.max(1) as f64,
            mean_latency_s: elapsed[e] / n_instances.max(1) as f64,
            n_instances,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tasks::TaskKind;
    use alaya_attention::{DiprsAttention, FullAttention, StreamingLlm, TopKRetrieval, WindowSpec};

    fn dipr_engine(dim: usize) -> DiprsAttention {
        DiprsAttention {
            window: WindowSpec::new(16, 32),
            // β in IP units: 4 logits × √d.
            beta: 4.0 * (dim as f32).sqrt(),
            l0: 64,
        }
    }

    #[test]
    fn full_attention_near_perfect_on_needles() {
        let task = Task::new(TaskKind::RetrPasskey, 1200, 24);
        let score = evaluate_engine(&FullAttention, &task, 10, 42);
        assert!(score.accuracy >= 90.0, "full attention: {}", score.accuracy);
        assert_eq!(score.mean_attended as usize, 1200);
    }

    #[test]
    fn method_ordering_on_a_needle_task() {
        let task = Task::new(TaskKind::RetrPasskey, 1200, 24);
        let stream = evaluate_engine(
            &StreamingLlm {
                window: WindowSpec::new(16, 32),
            },
            &task,
            10,
            42,
        );
        let topk = evaluate_engine(
            &TopKRetrieval {
                window: WindowSpec::new(16, 32),
                k: 64,
                ef: 128,
            },
            &task,
            10,
            42,
        );
        let dipr = evaluate_engine(&dipr_engine(24), &task, 10, 42);
        assert!(stream.accuracy < 50.0, "streaming {}", stream.accuracy);
        assert!(topk.accuracy >= 90.0, "topk {}", topk.accuracy);
        assert!(dipr.accuracy >= 90.0, "dipr {}", dipr.accuracy);
        // Sparse methods attend far less than the context.
        assert!(
            dipr.mean_attended < 400.0,
            "dipr attended {}",
            dipr.mean_attended
        );
    }

    #[test]
    fn dipr_adapts_attended_tokens_across_tasks() {
        // Needle task → few tokens; aggregation task → many.
        let needle = Task::new(TaskKind::RetrKv, 1200, 24);
        let agg = Task::new(TaskKind::EnSum, 1200, 24);
        let e = dipr_engine(24);
        let sn = evaluate_engine(&e, &needle, 6, 9);
        let sa = evaluate_engine(&e, &agg, 6, 9);
        assert!(
            sa.mean_attended > 1.5 * sn.mean_attended,
            "EnSum ({}) should retrieve far more than Retr.KV ({})",
            sa.mean_attended,
            sn.mean_attended
        );
    }
}
