//! The four workloads: sizes, database configuration and set-up.

use std::sync::Arc;

use alaya_attention::WindowSpec;
use alaya_core::{Db, DbConfig};
use alaya_device::memory::MemoryTracker;
use alaya_llm::{FullKvBackend, Model, ModelConfig};
use alaya_query::optimizer::OptimizerConfig;
use alaya_serve::{ServeConfig, ServeEngine};

use crate::gen;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// Unshared prompts of `prompt_min..=prompt_max` tokens.
    Chat {
        prompt_min: usize,
        prompt_max: usize,
    },
    /// One stored context plus `suffix` unseen tokens.
    Long { suffix: usize },
    /// `turns`-turn conversations: each turn adds `new_tokens` prompt
    /// tokens to what was stored, then stores again; every
    /// `branch_every`-th turn keeps only `branch_at_pct` % of the stored
    /// context (partial reuse).
    Reuse {
        turns: usize,
        new_tokens: usize,
        branch_every: usize,
        branch_at_pct: usize,
    },
}

#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    /// Why this workload exists — also a field of `BENCHMARK.json`.
    pub why: &'static str,
    /// `ModelConfig::small()` or `ModelConfig::tiny()`.
    pub small_model: bool,
    pub n_contexts: usize,
    pub context_len: usize,
    pub shape: Shape,
    /// Closed-loop client threads (capped at the host's core count).
    pub clients: usize,
    pub out_tokens: usize,
    /// Optimizer rule 1: contexts at or below this run full attention.
    pub threshold: usize,
    /// GPU budget the optimizer probes: 1 byte ⇒ DIPR, unbounded ⇒ coarse.
    pub gpu_budget: u64,
    /// Substrings that `Plan::explain()` of the checked requests must show.
    pub expect_plans: &'static [&'static str],
    /// SLO limits: 2x the seed commit's `ttft_ms_p90` / `tpot_ms_p95` on
    /// the reference host (see README), fixed once.
    pub slo_ttft_ms: f64,
    pub slo_tpot_ms: f64,
}

const SPECS: [Spec; 4] = [
    Spec {
        name: "chat_short",
        why: "Tiny model, unshared 32-96 token prompts, full attention: admit, enqueue, batch, pool and reply are most of a step, so serve-layer cost shows here and kernel or index work must not.",
        small_model: false,
        n_contexts: 0,
        context_len: 0,
        shape: Shape::Chat {
            prompt_min: 32,
            prompt_max: 96,
        },
        // One client: with two, microsecond steps phase-lock the clients
        // into batching regimes that wander for seconds and widen every
        // run-to-run spread two- to threefold (README, "Steadiness").
        clients: 1,
        out_tokens: 32,
        threshold: 4096,
        gpu_budget: 1,
        expect_plans: &["FullAttention"],
        slo_ttft_ms: 24.0,
        slo_tpot_ms: 0.36,
    },
    Spec {
        name: "long_dipr",
        why: "Two stored 2048-token contexts plus 16 new tokens under a 1-byte GPU budget: DIPR on Flat at layer 0 and DIPRS graph search above dominate, so query, index and vector changes show here.",
        small_model: true,
        n_contexts: 2,
        context_len: 2048,
        shape: Shape::Long { suffix: 16 },
        clients: 2,
        out_tokens: 32,
        threshold: 512,
        gpu_budget: 1,
        expect_plans: &["DIPR(beta=4) on Flat", "DIPR(beta=4) on Fine"],
        slo_ttft_ms: 123.0,
        slo_tpot_ms: 8.9,
    },
    Spec {
        name: "long_coarse",
        why: "Same inputs as long_dipr with an unbounded GPU budget: TopK on Coarse bypasses graphs and DIPRS, so a DIPRS gain must not move it and a change to shared gather/merge code shows as a split.",
        small_model: true,
        n_contexts: 2,
        context_len: 2048,
        shape: Shape::Long { suffix: 16 },
        clients: 2,
        out_tokens: 32,
        threshold: 512,
        gpu_budget: u64::MAX,
        expect_plans: &["TopK(k=128) on Coarse"],
        slo_ttft_ms: 71.0,
        slo_tpot_ms: 5.0,
    },
    Spec {
        name: "store_reuse",
        why: "5-turn conversations store after every turn and reuse what they stored, fully or 60% of it: index builds run beside decodes and the context table grows, so store and prefix-match changes show.",
        small_model: true,
        n_contexts: 0,
        context_len: 0,
        shape: Shape::Reuse {
            turns: 5,
            new_tokens: 48,
            branch_every: 3,
            branch_at_pct: 60,
        },
        clients: 2,
        out_tokens: 16,
        threshold: 64,
        gpu_budget: 1,
        expect_plans: &["FullAttention", "DIPR(beta=4) on Fine", " where token<"],
        slo_ttft_ms: 199.0,
        slo_tpot_ms: 4.9,
    },
];

/// The spec of a workload; `quick` shrinks it to the smoke-test size.
pub fn spec(name: &str, quick: bool) -> Option<Spec> {
    let mut s = *SPECS.iter().find(|s| s.name == name)?;
    if quick {
        if s.context_len > 0 {
            s.context_len = 256;
            s.threshold = 128;
        }
        s.out_tokens = 8;
        if let Shape::Chat { prompt_max, .. } = &mut s.shape {
            *prompt_max = 48;
        }
    }
    Some(s)
}

pub fn specs() -> &'static [Spec] {
    &SPECS
}

pub fn names() -> impl Iterator<Item = &'static str> {
    SPECS.iter().map(|s| s.name)
}

impl Spec {
    /// Load-generator threads: never more than the host has cores.
    pub fn n_clients(&self) -> usize {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        self.clients.min(cores)
    }
}

/// Everything a run drives: the model, the database and the engine.
pub struct World {
    pub spec: Spec,
    pub model: Model,
    pub db: Arc<Db>,
    pub engine: ServeEngine,
    /// Admissions are charged here, not to the DB's GPU tracker, so the
    /// optimizer's `would_fit` probe — and with it the plan — never depends
    /// on how many sessions happen to be open.
    pub admission: Arc<MemoryTracker>,
    pub contexts: Vec<Vec<u32>>,
}

fn db_config(spec: &Spec, model: ModelConfig) -> DbConfig {
    DbConfig {
        optimizer: OptimizerConfig {
            short_context_threshold: spec.threshold,
            default_beta: 4.0,
            default_k: 128,
            flat_layers: 1,
        },
        window: WindowSpec::new(16, 64),
        gpu: MemoryTracker::new(spec.gpu_budget),
        coarse_block_size: 32,
        ..DbConfig::for_tests(model)
    }
}

/// Builds the world: model weights, stored contexts (model-prefilled with
/// the coupled `FullKvBackend`, one thread per context, then `Db::import`),
/// and the engine. Warm-up is the caller's (it needs the request path).
pub fn build(spec: Spec, seed: u64) -> World {
    let model_cfg = if spec.small_model {
        ModelConfig::small()
    } else {
        ModelConfig::tiny()
    };
    let model = Model::new(model_cfg.clone());
    let db = Arc::new(Db::new(db_config(&spec, model_cfg.clone())));
    let contexts = gen::contexts(&spec, seed);

    let caches = std::thread::scope(|s| {
        let handles: Vec<_> = contexts
            .iter()
            .map(|tokens| {
                let (model, model_cfg) = (&model, &model_cfg);
                s.spawn(move || {
                    let mut backend = FullKvBackend::new(model_cfg);
                    model.prefill(tokens, 0, &mut backend);
                    backend.into_cache()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("context prefill panicked"))
            .collect::<Vec<_>>()
    });
    for (tokens, kv) in contexts.iter().zip(caches) {
        db.import(tokens.clone(), kv);
    }

    let admission = MemoryTracker::unbounded();
    let engine = ServeEngine::with_options(
        Arc::clone(&db),
        ServeConfig {
            admission: Some(Arc::clone(&admission)),
            ..ServeConfig::default()
        },
    );
    World {
        spec,
        model,
        db,
        engine,
        admission,
        contexts,
    }
}
